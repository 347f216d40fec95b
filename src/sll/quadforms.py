"""Quadratic forms over W_n(F_q) and F_q: associated bilinear form,
non-degeneracy, and split standardization for odd residue characteristic.

Square roots needed by the standardization are looked for in F_q first;
when a residue is a non-square the computation moves, once, to F_{q^2}
and reports the extension.  At p = 2 non-degeneracy testing still works
(only invertibility of the Gram matrix is needed); split standardization
is refused there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .base_rings import WittRing, sqrt_unit, witt_quadratic_extension
from .errors import (
    DomainError,
    PreconditionError,
    UnsupportedCharacteristicError,
)
from .series import SeriesRing, TruncatedSeries


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
            c = coeff_ring.from_int(c) if isinstance(c, int) else coeff_ring.element(c)
            if c:
                table[(i, j)] = c
        self.upper = table

    @classmethod
    def from_series(cls, f):
        """The quadratic form given by the degree-2 graded part of f."""
        ring = f.parent
        q2 = f.graded_part(2)
        upper = {}
        for e, c in q2.coeffs.items():
            idx = [i for i, ei in enumerate(e) for _ in range(ei)]
            upper[(idx[0], idx[1])] = c
        return cls(ring.coeff_ring, ring.nvars, upper)

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

    def coefficient(self, i, j):
        if i > j:
            i, j = j, i
        return self.upper.get((i, j), self.coeff_ring.zero())

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and other.coeff_ring == self.coeff_ring
            and other.nvars == self.nvars
            and other.upper == self.upper
        )

    def __add__(self, other):
        if other.coeff_ring != self.coeff_ring or other.nvars != self.nvars:
            raise DomainError("forms over different contexts")
        out = {}
        for key in set(self.upper) | set(other.upper):
            out[key] = self.coefficient(*key) + other.coefficient(*key)
        return QuadraticForm(self.coeff_ring, self.nvars, out)

    def __repr__(self):
        return f"QuadraticForm({self.nvars} vars, {len(self.upper)} terms)"

    def evaluate(self, point):
        acc = self.coeff_ring.zero()
        for (i, j), c in self.upper.items():
            acc = acc + c * point[i] * point[j]
        return acc


def bilinear_gram(Q):
    """Gram matrix of B(x,y) = Q(x+y) - Q(x) - Q(y), i.e. Qmat + Qmat^T."""
    n = Q.nvars
    G = linalg.zeros(Q.coeff_ring, n, n)
    for (i, j), c in Q.upper.items():
        if i == j:
            G[i][i] = G[i][i] + c + c
        else:
            G[i][j] = G[i][j] + c
            G[j][i] = G[j][i] + c
    return G


def is_nondegenerate(Q):
    """True iff det of the Gram matrix is a unit in the coefficient ring."""
    G = bilinear_gram(Q)
    ring = Q.coeff_ring
    if isinstance(ring, WittRing):
        return linalg.rank_field(ring.field, linalg.mat_map(G, ring.residue)) == Q.nvars
    return linalg.rank_field(ring, G) == Q.nvars


def split_form(coeff_ring, nvars):
    """x1 x2 + x3 x4 + ... on an even number of variables."""
    if nvars % 2:
        raise DomainError("split form needs an even number of variables")
    one = coeff_ring.one()
    return QuadraticForm(coeff_ring, nvars, {(2 * k, 2 * k + 1): one for k in range(nvars // 2)})


@dataclass
class SplitStandardization:
    """Result of standardize_split: Q(C y) is the split form over `ring`
    (the original Witt ring, or its on-demand quadratic extension)."""

    ring: object
    matrix: list
    extended: bool
    embedding: object = None
    steps: list = field(default_factory=list)

    def transformed_form(self, Q):
        """Q(C y) as a QuadraticForm over self.ring, for verification."""
        work = _embed_form(Q, self.ring, self.embedding)
        n = work.nvars
        sring = SeriesRing(self.ring, n, 3)
        qs = work.to_series(sring)
        images = [
            _linear_combination(sring, [self.matrix[i][j] for j in range(n)])
            for i in range(n)
        ]
        return QuadraticForm.from_series(qs.substitute(images))


def _linear_combination(sring, coeffs):
    acc = sring.zero()
    for i, c in enumerate(coeffs):
        if c:
            acc = acc + sring.variable(i).scalar_mul(c)
    return acc


def _embed_form(Q, ring, embedding):
    if embedding is None:
        return Q
    return QuadraticForm(ring, Q.nvars, {k: embedding(c) for k, c in Q.upper.items()})


def _is_disjoint_monomial_pairing(Q):
    seen = set()
    for (i, j), c in Q.upper.items():
        if i == j or i in seen or j in seen or not Q.coeff_ring.is_unit(c):
            return False
        seen.add(i)
        seen.add(j)
    return len(seen) == Q.nvars


def standardize_split(Q):
    """Change of basis C with Q(C y) = y1 y2 + y3 y4 + ... exactly.

    Requires odd residue characteristic, non-degenerate Q, and an even
    number of variables.  If a needed square root is missing from F_q the
    computation extends once to F_{q^2}; the returned object carries the
    ring it worked in and the embedding used.
    """
    ring = Q.coeff_ring
    if not isinstance(ring, WittRing):
        raise DomainError("split standardization works over Witt coefficient rings")
    if ring.p == 2:
        raise UnsupportedCharacteristicError("split standardization needs odd p")
    if Q.nvars % 2:
        raise PreconditionError("split standardization needs an even number of variables")
    if not is_nondegenerate(Q):
        raise PreconditionError("form is degenerate", part="quadratic")

    n = Q.nvars
    if Q == split_form(ring, n):
        return SplitStandardization(ring, linalg.identity(ring, n), False, None, ["already split"])

    if _is_disjoint_monomial_pairing(Q):
        # pure relabeling: send each monomial q_ij x_i x_j to a hyperbolic
        # pair, absorbing the unit into one leg; C is a signed/scaled permutation
        C = linalg.zeros(ring, n, n)
        steps = ["monomial relabeling"]
        pairs = sorted(Q.upper.keys())
        for k, (i, j) in enumerate(pairs):
            c = Q.upper[(i, j)]
            C[i][2 * k] = ring.invert(c)
            C[j][2 * k + 1] = ring.one()
        return SplitStandardization(ring, C, False, None, steps)

    # general route: congruence-diagonalize S = G/2, then pair the diagonal
    steps = []
    half = ring.invert(ring.from_int(2))
    G = bilinear_gram(Q)
    S = [[half * x for x in row] for row in G]
    C = linalg.identity(ring, n)

    def col_op(j, i, f):
        # x_j gets a multiple of x_i mixed in: col_j(C) += f * col_i(C)
        for r in range(n):
            C[r][j] = C[r][j] + f * C[r][i]

    for t in range(n):
        if not ring.is_unit(S[t][t]):
            swap = next((r for r in range(t + 1, n) if ring.is_unit(S[r][r])), None)
            if swap is not None:
                for r in range(n):
                    S[r][t], S[r][swap] = S[r][swap], S[r][t]
                S[t], S[swap] = S[swap], S[t]
                for r in range(n):
                    C[r][t], C[r][swap] = C[r][swap], C[r][t]
            else:
                i, j = next(
                    (i, j)
                    for i in range(t, n)
                    for j in range(t, n)
                    if i != j and ring.is_unit(S[i][j])
                )
                if i != t:
                    for r in range(n):
                        S[r][t], S[r][i] = S[r][i], S[r][t]
                    S[t], S[i] = S[i], S[t]
                    for r in range(n):
                        C[r][t], C[r][i] = C[r][i], C[r][t]
                    if j == t:
                        j = i
                # x_t <- x_t + x_j makes S_tt = S_tt + 2 S_tj + S_jj a unit
                one = ring.one()
                for r in range(n):
                    S[r][t] = S[r][t] + S[r][j]
                S[t] = [S[t][c] + S[j][c] for c in range(n)]
                col_op(t, j, one)
        piv_inv = ring.invert(S[t][t])
        for j in range(t + 1, n):
            if S[t][j]:
                f = -(piv_inv * S[t][j])
                for r in range(n):
                    S[r][j] = S[r][j] + f * S[r][t]
                S[j] = [S[j][c] + f * S[t][c] for c in range(n)]
                col_op(j, t, f)
    diag = [S[t][t] for t in range(n)]
    steps.append("diagonalized")

    # all square roots are of residues of elements computed over the base
    # field, so a single quadratic extension always suffices
    ratios = [-(diag[2 * k + 1] * ring.invert(diag[2 * k])) for k in range(n // 2)]
    work_ring, embedding = ring, None
    if any(sqrt_unit(ring, r) is None for r in ratios):
        work_ring, embedding = witt_quadratic_extension(ring)
        steps.append(f"extended residue field to F_{work_ring.field.q}")
        diag = [embedding(d) for d in diag]
        ratios = [embedding(r) for r in ratios]
        C = [[embedding(x) for x in row] for row in C]

    # c x^2 + d y^2 = (c(x - a y)) (x + a y) with a^2 = -d/c
    P = linalg.zeros(work_ring, n, n)
    for k in range(n // 2):
        c = diag[2 * k]
        alpha = sqrt_unit(work_ring, ratios[k])
        if alpha is None:
            raise PreconditionError("square root missing after extension")
        cinv = work_ring.invert(c)
        half_w = work_ring.invert(work_ring.from_int(2))
        # inverse of the map (u,v) = (c(x - a y), x + a y)
        P[2 * k][2 * k] = cinv * half_w
        P[2 * k][2 * k + 1] = half_w
        ainv = work_ring.invert(alpha)
        P[2 * k + 1][2 * k] = -(cinv * half_w * ainv)
        P[2 * k + 1][2 * k + 1] = half_w * ainv
        steps.append(f"paired variables {2 * k + 1},{2 * k + 2}")
    C = linalg.mat_mul(C, P)
    return SplitStandardization(work_ring, C, embedding is not None, embedding, steps)
