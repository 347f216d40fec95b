"""Quadratic forms over W_n(F_q) and F_q, and the one owner of the
quadratic form of a series: `QuadraticForm.from_series` reads its degree-2
part (`TruncatedSeries.quadratic_coefficients`), `bilinear_gram` builds the
Gram matrix and `gram_inverse` inverts it in slot ints of a `CoeffPacking`.
The inversion pivots on units, so it is the one non-degeneracy test;
`is_nondegenerate`, `quadric_class` (the split or non-split class of the
smooth quadric over the residue field) and `sll.singularity` ask it.  The
test and the class depend only on the form mod p, and both work at every
p, including 2.
"""

from __future__ import annotations

import functools

from . import linalg
from .errors import DomainError, PreconditionError


class QuadraticForm:
    """Homogeneous degree-2 form Q = sum_{i<=j} q_ij x_i x_j over a local
    coefficient ring, stored by its upper-triangular coefficient matrix."""

    def __init__(self, coeff_ring, nvars, upper):
        self.coeff_ring = coeff_ring
        self.nvars = nvars
        table = {}
        for (i, j), c in upper.items():
            if not (0 <= i <= j < nvars):
                raise DomainError("upper-triangular index out of range")
            c = coeff_ring.element(c)
            if c:
                table[(i, j)] = c
        self.upper = table

    @classmethod
    def from_series(cls, f):
        """The quadratic form given by the degree-2 graded part of f."""
        n = f.parent.nvars
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        return cls(f.parent.coeff_ring, n, dict(zip(pairs, f.quadratic_coefficients())))

    def to_series(self, series_ring):
        if series_ring.coeff_ring != self.coeff_ring or series_ring.nvars != self.nvars:
            raise DomainError("series ring does not match the form's context")
        terms = []
        for (i, j), c in self.upper.items():
            e = [0] * self.nvars
            e[i] += 1
            e[j] += 1
            terms.append((tuple(e), c))
        return series_ring.from_terms(terms)

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and other.coeff_ring == self.coeff_ring
            and other.nvars == self.nvars
            and other.upper == self.upper
        )

    def __hash__(self):
        return hash((self.coeff_ring, self.nvars, frozenset(self.upper.items())))

    def __repr__(self):
        return f"QuadraticForm({self.nvars} vars, {len(self.upper)} terms)"


def bilinear_gram(Q):
    """Gram matrix of B(x,y) = Q(x+y) - Q(x) - Q(y), i.e. Qmat + Qmat^T:
    2 q_ii on the diagonal and q_ij off it, each entry written once."""
    G = linalg.zeros(Q.coeff_ring, Q.nvars, Q.nvars)
    for (i, j), c in Q.upper.items():
        G[i][j] = G[j][i] = c + c if i == j else c
    return G


@functools.lru_cache(maxsize=1)
def gram_inverse(Q, packing):
    """The inverse of the Gram matrix of Q, as row tuples of slot ints of
    `packing`, a `CoeffPacking` of Q's ring, or a PreconditionError (part
    "quadratic") if Q is degenerate.  `linalg._invert` pivots on units, so
    it is also the test that the Gram matrix mod p is non-degenerate (a
    failure is not kept).  The last inverse is kept: the normal form asks
    for it again, in its series ring's packing, when its linear shift
    leaves Q unchanged."""
    if packing.coeff_ring != Q.coeff_ring:
        raise DomainError("the packing is not of the form's coefficient ring")
    try:
        inverse = linalg._invert(packing, packing.reduced_matrix(bilinear_gram(Q)))
    except DomainError:
        raise PreconditionError("quadratic part is degenerate", part="quadratic") from None
    return tuple(map(tuple, inverse))


def is_nondegenerate(Q):
    """True iff det of the Gram matrix is a unit in the coefficient ring."""
    try:
        gram_inverse(Q, Q.coeff_ring.packing)
    except PreconditionError:
        return False
    return True


def quadric_class(Q):
    """"split" or "nonsplit": the class of the smooth quadric Q = 0 over the
    residue field F_q, for a non-degenerate Q in an even number 2k of
    variables.  Split means hyperbolic, x1 x2 + ... + x_{2k-1} x_2k after a
    change of variables; in 4 variables the split quadric is P^1 x P^1 with
    (q+1)^2 points and the non-split one has q^2 + 1.

    Odd p: split iff (-1)^k det(Gram) is a square in F_q (Euler's
    criterion).  p = 2: split iff the Arf invariant, sum Q(e_i) Q(f_i) over
    a symplectic basis of the Gram form, has absolute trace 0.  See
    Lidl-Niederreiter, Finite Fields, section 6.2.
    """
    n = Q.nvars
    if n % 2:
        raise PreconditionError("the quadric class needs an even number of variables")
    gram_inverse(Q, Q.coeff_ring.packing)  # refuses a degenerate Q
    field, res = Q.coeff_ring.field, Q.coeff_ring.residue
    G = linalg.mat_map(bilinear_gram(Q), res)
    if field.p != 2:
        disc = linalg.det(field, G) * field.from_int((-1) ** (n // 2))
        return "split" if disc ** ((field.q - 1) // 2) == field.one() else "nonsplit"

    upper = [(i, j, res(c)) for (i, j), c in Q.upper.items()]

    def B(v, w):
        return linalg.bilinear(G, v, w, field.zero())

    def value(v):
        return sum((c * v[i] * v[j] for i, j, c in upper), field.zero())

    # symplectic basis of the alternating form G: pair e with some f,
    # B(e, f) = 1, and project the remaining vectors onto <e, f>^perp
    rest = linalg.identity(field, n)
    arf = field.zero()
    while rest:
        e = rest.pop()
        f = rest.pop(next(k for k, w in enumerate(rest) if B(e, w)))
        f = [field.invert(B(e, f)) * x for x in f]
        projected = []
        for v in rest:
            bf, be = B(v, f), B(v, e)
            projected.append([x - bf * y + be * z for x, y, z in zip(v, e, f)])
        rest = projected
        arf = arf + value(e) * value(f)
    trace, t = arf, arf
    for _ in range(field.m - 1):
        t = field.frobenius(t)
        trace = trace + t
    return "nonsplit" if trace else "split"
