"""Special fiber of the rank-4 local model with pairing of degree p^2:
enumeration of isotropic 2-planes over small F_q, tangent dimensions, the
singular locus, and the affine chart equation at the distinguished point.

The pairing on the standard basis e1..e4 is

    psi(e1, e4) = p,   psi(e2, e3) = 1,   all other basis pairings zero,

i.e. the alternating matrix [[0, I'], [-I'^T, 0]] with I' = [[0, p], [1, 0]].
Mod p its radical is the plane <e1, e4>, which is the singular point of
the special fiber; the chart at that point expands the single isotropy
condition into p + t11*t22 - t12*t21.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import linalg
from .base_rings import MAX_CHARACTERISTIC, FiniteField, WittRing
from .deformation import T_VARS
from .errors import PreconditionError, ValidationError
from .series import SeriesRing
from .singularity import default_truncation


def field_for_q(q):
    """The deterministic field of order q = p^m."""
    if q < 2:
        raise ValidationError(f"{q} is not a prime power")
    # the least divisor > 1 is the prime p; a q with no divisor up to the
    # characteristic limit is left for FiniteField to reject
    limit = min(math.isqrt(q), MAX_CHARACTERISTIC)
    p = next((d for d in range(2, limit + 1) if q % d == 0), q)
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValidationError(f"{q} is not a prime power")
    return FiniteField(p, m)


@functools.lru_cache(maxsize=64)
def pairing_matrix(ring):
    """The 4x4 alternating matrix of the pairing over `ring` (a FiniteField
    gets the mod-p matrix, a WittRing the integral one), as row tuples
    built once per ring."""
    p = ring.p
    rows = [
        [0, 0, 0, p],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-p, 0, 0, 0],
    ]
    return tuple(tuple(ring.from_int(x) for x in row) for row in rows)


@dataclass(frozen=True)
class IsotropicPlane:
    """A 2-plane in F_q^4, stored by its reduced-row-echelon basis."""

    field: FiniteField
    basis: tuple  # two 4-tuples of field elements, RREF

    def __post_init__(self):
        rows = [list(r) for r in self.basis]
        if len(rows) != 2 or any(len(r) != 4 for r in rows):
            raise ValidationError("plane basis must be 2x4")
        if linalg.rank_field(self.field, rows) != 2:
            raise ValidationError("plane basis must have rank 2")

    def vectors(self):
        return [list(self.basis[0]), list(self.basis[1])]

    def to_json(self):
        return {"basis": [[list(x.coeffs) for x in row] for row in self.basis]}

    def __repr__(self):
        def fmt(row):
            return "(" + ",".join(str(x.coeffs[0]) if x.ring.m == 1 else str(list(x.coeffs)) for x in row) + ")"

        return f"IsotropicPlane[{fmt(self.basis[0])}, {fmt(self.basis[1])}]"


def plane_from_rows(field, rows):
    """Canonicalize a spanning pair into an IsotropicPlane (RREF form)."""
    red, _ = linalg.rref_field(field, [list(r) for r in rows])
    red = [row for row in red if any(row)]
    if len(red) != 2:
        raise ValidationError("rows do not span a plane")
    return IsotropicPlane(field, (tuple(red[0]), tuple(red[1])))


def pairing_value(field, v, w):
    G = pairing_matrix(field)
    acc = field.zero()
    for i, vi in enumerate(v):
        if vi:
            for j, wj in enumerate(w):
                if wj:
                    acc = acc + vi * G[i][j] * wj
    return acc


def radical_plane(field):
    """The mod-p radical <e1, e4> of the pairing."""
    one, zero = field.one(), field.zero()
    return IsotropicPlane(field, ((one, zero, zero, zero), (zero, zero, zero, one)))


def enumerate_special_fiber(q):
    """All psi-isotropic 2-planes of F_q^4 in canonical echelon form,
    deterministically ordered by echelon cell and then by free entries.

    For an alternating form a plane span(v, w) is isotropic iff
    psi(v, w) = 0, a single condition."""
    field = field_for_q(q)
    if field.q > 9:
        raise PreconditionError("special-fiber enumeration is desk scale: q <= 9")
    elements = sorted(field.elements(), key=lambda e: e.coeffs)
    zero, one = field.zero(), field.one()
    out = []
    for pivots in itertools.combinations(range(4), 2):
        i, j = pivots
        free_cols = [c for c in range(4) if c not in pivots and c > i]
        free1 = [c for c in free_cols if c != j]
        free2 = [c for c in range(4) if c > j]
        for vals1 in itertools.product(elements, repeat=len(free1)):
            row1 = [zero] * 4
            row1[i] = one
            for c, v in zip(free1, vals1):
                row1[c] = v
            for vals2 in itertools.product(elements, repeat=len(free2)):
                row2 = [zero] * 4
                row2[j] = one
                for c, v in zip(free2, vals2):
                    row2[c] = v
                if pairing_value(field, row1, row2):
                    continue
                out.append(IsotropicPlane(field, (tuple(row1), tuple(row2))))
    return out


def tangent_dimension(plane):
    """Dimension of {phi : P -> F_q^4 / P with psi(phi v, w) + psi(v, phi w)
    = 0}: 4 at the radical plane, 3 everywhere else on the fiber."""
    field = plane.field
    v, w = plane.vectors()
    if pairing_value(field, v, w):
        raise PreconditionError("plane is not isotropic")
    # complement basis: standard vectors outside the plane
    comp = []
    for k in range(4):
        e = [field.one() if i == k else field.zero() for i in range(4)]
        rows = plane.vectors() + [c for c in comp] + [e]
        if linalg.rank_field(field, rows) == 2 + len(comp) + 1:
            comp.append(e)
        if len(comp) == 2:
            break
    u1, u2 = comp
    row = [
        pairing_value(field, u1, w),
        pairing_value(field, u2, w),
        pairing_value(field, v, u1),
        pairing_value(field, v, u2),
    ]
    return 4 - (1 if any(row) else 0)


def singular_points(q):
    """Fiber points with tangent dimension 4; equals the radical plane."""
    return [plane for plane in enumerate_special_fiber(q) if tangent_dimension(plane) == 4]


def chart_equation(ring, center=None, degree=None):
    """Equation of the affine chart at the distinguished point z = <e1, e4>.

    Nearby planes are the row spaces of [[1, t11, t12, 0], [0, t21, t22, 1]];
    expanding psi(row1, row2) = 0 gives exactly p + t11*t22 - t12*t21 over
    W_n.  `center`, when given, must be the radical plane.
    """
    if not isinstance(ring, WittRing):
        raise PreconditionError("the chart lives over a Witt ring")
    if center is not None:
        if center != radical_plane(ring.field):
            raise PreconditionError("the chart is centered at the radical plane <e1, e4>")
    degree = degree or default_truncation(ring.p)
    sring = SeriesRing(ring, 4, degree, T_VARS)
    t = sring.variables()
    zero, one = sring.zero(), sring.one()
    row1 = [one, t[0], t[1], zero]
    row2 = [zero, t[2], t[3], one]
    G = pairing_matrix(ring)
    acc = sring.zero()
    for i in range(4):
        if row1[i]:
            for j in range(4):
                if row2[j] and G[i][j]:
                    acc = acc + (row1[i] * row2[j]).scalar_mul(G[i][j])
    return acc
