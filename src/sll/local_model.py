"""Special fiber of the rank-4 local model with pairing of degree p^2:
enumeration of isotropic 2-planes over small F_q, tangent dimensions, the
singular locus, and the affine chart equation at the distinguished point.

The pairing on the standard basis e1..e4 is

    psi(e1, e4) = p,   psi(e2, e3) = 1,   all other basis pairings zero,

i.e. the alternating matrix [[0, I'], [-I'^T, 0]] with I' = [[0, p], [1, 0]].
Mod p the pairing is x2*y3 - x3*y2 and its radical is R = <e1, e4>.  A
plane is isotropic exactly when it meets R, so the special fiber is the
Schubert divisor {L : L meets R} of Gr(2, 4): a cone over P^1 x P^1 whose
only singular point is R.  The points are generated from that description
and the tangent dimension is read off it (4 at R, 3 elsewhere); the
filtering enumerator and the rank-based tangent dimension they replace are
kept as references in tests/oracles.py.  The chart at R expands the single
isotropy condition into p + t11*t22 - t12*t21.
"""

from __future__ import annotations

import itertools

from . import linalg
from .base_rings import WittRing, field_for_q
from .errors import PreconditionError, ValidationError


def pairing_matrix(ring):
    """The 4x4 alternating matrix of the pairing over `ring` (a FiniteField
    gets the mod-p matrix, a WittRing the integral one), as row tuples."""
    p = ring.p
    rows = [
        [0, 0, 0, p],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-p, 0, 0, 0],
    ]
    return tuple(tuple(ring.from_int(x) for x in row) for row in rows)


class IsotropicPlane:
    """A 2-plane in F_q^4, stored by its reduced-row-echelon basis: any
    spanning pair is accepted and reduced, so equal planes compare equal."""

    def __init__(self, field, basis):
        rows = [list(r) for r in basis]
        if len(rows) != 2 or any(len(r) != 4 for r in rows):
            raise ValidationError("plane basis must be 2x4")
        red, pivots = linalg.rref_field(field, rows)
        if len(pivots) != 2:
            raise ValidationError("plane basis must have rank 2")
        self._store(field, red)

    def _store(self, field, echelon):
        """Set the attributes, here only, from a basis in echelon form; returns self."""
        self.field = field
        self.basis = tuple(tuple(r) for r in echelon)  # two 4-tuples of field elements
        return self

    def __eq__(self, other):
        return (isinstance(other, IsotropicPlane)
                and (self.field, self.basis) == (other.field, other.basis))

    def __hash__(self):
        return hash((self.field, self.basis))

    def vectors(self):
        return [list(self.basis[0]), list(self.basis[1])]

    def __repr__(self):
        def fmt(row):
            return "(" + ",".join(str(x.coeffs[0]) if x.ring.m == 1 else str(list(x.coeffs)) for x in row) + ")"

        return f"IsotropicPlane[{fmt(self.basis[0])}, {fmt(self.basis[1])}]"


def pairing_value(v, w):
    """The mod-p pairing x2*y3 - x3*y2 of two vectors of F_q^4."""
    return v[1] * w[2] - v[2] * w[1]


def radical_plane(field):
    """The mod-p radical <e1, e4> of the pairing."""
    one, zero = field.one(), field.zero()
    return IsotropicPlane(field, ((one, zero, zero, zero), (zero, zero, zero, one)))


def enumerate_special_fiber(q):
    """All psi-isotropic 2-planes of F_q^4 in canonical echelon form,
    deterministically ordered by echelon cell and then by free entries:
    the echelon planes whose (e2, e3)-minor, the mod-p pairing, is zero."""
    field = field_for_q(q)
    if field.q > 9:
        raise PreconditionError("special-fiber enumeration is desk scale: q <= 9")
    elements = list(field.elements())
    zero, one = field.zero(), field.one()

    def row(pivot, cols, vals):
        vec = [zero] * 4
        vec[pivot] = one
        for c, v in zip(cols, vals):
            vec[c] = v
        return tuple(vec)

    out = []
    for i, j in itertools.combinations(range(4), 2):
        if (i, j) == (1, 2):  # the minor is 1
            continue
        # in cells (e1, e2) and (e1, e3) the minor is row 1's entry at e3, e2
        pinned = {(0, 1): 2, (0, 2): 1}.get((i, j))
        free1 = [c for c in range(i + 1, 4) if c != j]
        free2 = range(j + 1, 4)
        for vals1 in itertools.product(*([zero] if c == pinned else elements for c in free1)):
            row1 = row(i, free1, vals1)
            for vals2 in itertools.product(elements, repeat=len(free2)):
                out.append(IsotropicPlane.__new__(IsotropicPlane)._store(field, (row1, row(j, free2, vals2))))
    return out


def tangent_dimension(plane):
    """Dimension of {phi : P -> F_q^4 / P with psi(phi v, w) + psi(v, phi w)
    = 0}.  The fiber is a cone over P^1 x P^1 with vertex R = <e1, e4>, so
    this is 4 at R and 3 everywhere else on the fiber."""
    v, w = plane.vectors()
    if pairing_value(v, w):
        raise PreconditionError("plane is not isotropic")
    # a rank-2 plane is R exactly when both basis vectors lie in R
    return 3 if any(x[1] or x[2] for x in (v, w)) else 4


def chart_equation(ring):
    """Equation of the affine chart at the distinguished point z = <e1, e4>.

    Nearby planes are the row spaces of [[1, t11, t12, 0], [0, t21, t22, 1]],
    the deformation relation with Y = (e1, e4) and X = (e2, e3);
    expanding psi(row1, row2) = 0 gives exactly p + t11*t22 - t12*t21 over
    W_n.
    """
    from .deformation import pairing_relation

    if not isinstance(ring, WittRing):
        raise PreconditionError("the chart lives over a Witt ring")
    return pairing_relation(pairing_matrix(ring), 0, 3, (1, 2))
