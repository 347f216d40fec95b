"""Small dense exact linear algebra over the package's coefficient rings.

Matrices are lists of row lists of ring elements.  The ring object must
provide zero(), one(), is_unit(e), invert(e); elements support +, -, *.

`mat_mul` and `mat_vec` are packed.  They take elements of one coefficient
ring (F_q or W_n(F_q)) only, read their reduced coefficients, and leave the
product to the ring's `base_rings.CoeffPacking.mat_mul`: each output entry
one int dot product of spread coefficients, reduced once.

The rest stays on `Residue` arithmetic, where packing did not pay when
measured.  `bilinear` evaluates v^T G w for the package's pairings over a
coefficient ring, and skips zero entries, which the pairings are full of.
`invert`, `rref_field` and `smith_form_local` pick a pivot and scale rows
one step at a time; an `invert` by Newton lifting on packed products was
slower than the row reduction.  One Gauss-Jordan loop, `rref_field`,
serves fields and Witt rings alike: it pivots on units, which over a field
are the nonzero entries and over the local ring W_n(F_q) suffice for every
matrix invertible mod the maximal ideal, the only kind `invert` accepts.
"""

from __future__ import annotations

from .base_rings import Residue
from .errors import DomainError, InternalInvariantError


def identity(ring, n):
    z, o = ring.zero(), ring.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def zeros(ring, rows, cols):
    z = ring.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def _packing(*matrices):
    """The `CoeffPacking` of the one coefficient ring that every entry of
    the matrices lies in; DomainError as for Residue operands otherwise."""
    ring = None
    for M in matrices:
        for row in M:
            for e in row:
                if not isinstance(e, Residue):
                    raise DomainError("operands lie in different rings")
                if e.ring is not ring:
                    if ring is not None and e.ring != ring:
                        raise DomainError("operands lie in different rings")
                    ring = e.ring
    return ring.packing


def mat_mul(A, B):
    packing = _packing(A, B)
    reduced, element = packing.reduced, packing.element
    C = packing.mat_mul([[reduced(a) for a in row] for row in A],
                        [[reduced(b) for b in row] for row in B])
    return [[element(c) for c in row] for row in C]


def mat_vec(A, v):
    packing = _packing(A, [v])
    reduced, element = packing.reduced, packing.element
    C = packing.mat_mul([[reduced(a) for a in row] for row in A], [[reduced(x)] for x in v])
    return [element(row[0]) for row in C]


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_map(A, f):
    return [[f(a) for a in row] for row in A]


def det(ring, A):
    """Determinant by cofactor expansion; exact over any commutative ring."""
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    acc = ring.zero()
    sign = True
    for j in range(n):
        c = A[0][j]
        if c:
            minor = [row[:j] + row[j + 1:] for row in A[1:]]
            term = c * det(ring, minor)
            acc = acc + term if sign else acc - term
        sign = not sign
    return acc


def invert(ring, A):
    """Inverse of a matrix that is invertible modulo the maximal ideal: the
    right half of the reduced form of [A | I]."""
    n = len(A)
    work, pivots = rref_field(ring, [row + idr for row, idr in zip(A, identity(ring, n))])
    if pivots != list(range(n)):
        raise DomainError("matrix is not invertible over the local ring")
    return [row[n:] for row in work]


def bilinear(G, v, w, zero):
    """v^T G w, summed from `zero` over the nonzero entries of v, G and w."""
    acc = zero
    for vi, row in zip(v, G):
        if vi:
            for gij, wj in zip(row, w):
                if gij and wj:
                    acc = acc + vi * gij * wj
    return acc


def rank_field(field, A):
    """Rank of a matrix over a finite field, by row reduction."""
    return len(rref_field(field, A)[1])


def rref_field(ring, A):
    """Reduced row echelon form with unit pivots; returns (rref, pivots).
    Over a field this is the usual RREF; over W_n(F_q) a column with no
    unit entry below the pivot rows is passed over."""
    work = [row[:] for row in A]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots = []
    rank = 0
    one = ring.one()
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if ring.is_unit(work[r][col])), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot = work[rank][col]
        if pivot != one:
            inv = ring.invert(pivot)
            work[rank] = [inv * x for x in work[rank]]
        for r in range(rows):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return work, pivots


def smith_form_local(ring, A):
    """Smith normal form over W_n(F_q), where every elementary divisor is a
    power of p.  Returns (divisor valuations, U, V) with U A V = diag(p^v).

    U, V are invertible; entries of the diagonal beyond min(rows, cols)
    valuations are reported as ring.n (zero at this precision).
    """
    rows, cols = len(A), len(A[0])
    S = [row[:] for row in A]
    U = identity(ring, rows)
    V = identity(ring, cols)
    vals = []
    for t in range(min(rows, cols)):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = ring.valuation(S[i][j])
                if best is None or v < best[0]:
                    best = (v, i, j)
        if best is None or best[0] >= ring.n:
            vals.extend([ring.n] * (min(rows, cols) - t))
            break
        v, bi, bj = best
        S[t], S[bi] = S[bi], S[t]
        U[t], U[bi] = U[bi], U[t]
        for row in S:
            row[t], row[bj] = row[bj], row[t]
        for row in V:
            row[t], row[bj] = row[bj], row[t]
        # normalize pivot to exactly p^v
        unit = ring.divide_exact_p(S[t][t], v)
        uinv = ring.invert(unit)
        S[t] = [uinv * x for x in S[t]]
        U[t] = [uinv * x for x in U[t]]
        for i in range(t + 1, rows):
            if ring.valuation(S[i][t]) < ring.n:
                f = ring.divide_exact_p(S[i][t], v)
                S[i] = [x - f * y for x, y in zip(S[i], S[t])]
                U[i] = [x - f * y for x, y in zip(U[i], U[t])]
        for j in range(t + 1, cols):
            if ring.valuation(S[t][j]) < ring.n:
                f = ring.divide_exact_p(S[t][j], v)
                for row in S:
                    row[j] = row[j] - f * row[t]
                for vrow in V:
                    vrow[j] = vrow[j] - f * vrow[t]
        vals.append(v)
    if len(vals) != min(rows, cols):
        raise InternalInvariantError("smith form bookkeeping error")
    return vals, U, V
