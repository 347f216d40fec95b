"""Small dense exact linear algebra over the package's coefficient rings.

Matrices are lists of row lists of ring elements.  `mat_mul`, `mat_vec`,
`invert`, `rref_field`, `rank_field` and `smith_form_local` take elements
of one coefficient ring (F_q or W_n(F_q)) only; any other operand is a
`DomainError`.  Each reads the reduced coefficients once, computes with the
ring's `base_rings.CoeffPacking` (a product is one int dot product per
entry; a row reduction scales rows and subtracts multiples of rows) and
builds ring elements once at the end.  The one Gauss-Jordan loop, `_rref`,
pivots on units: over a field the nonzero entries, over W_n(F_q) enough for
every matrix invertible mod p, the only kind `invert` accepts.  `bilinear`
(v^T G w, skipping the zeros that the pairings are full of) and `det` stay
on `Residue` arithmetic.
"""

from __future__ import annotations

from .base_rings import Residue
from .errors import DomainError


def identity(ring, n):
    z, o = ring.zero(), ring.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def zeros(ring, rows, cols):
    z = ring.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def _packing(ring, *matrices):
    """The `CoeffPacking` of the one coefficient ring, `ring` unless that is
    None, of every entry of the matrices; DomainError as for Residue operands."""
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
    packing = _packing(None, A, B)
    return packing.element_matrix(
        packing.mat_mul(packing.reduced_matrix(A), packing.reduced_matrix(B)))


def mat_vec(A, v):
    packing = _packing(None, A, [v])
    C = packing.mat_mul(packing.reduced_matrix(A), [[packing.reduced(x)] for x in v])
    return [packing.element(row[0]) for row in C]


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
    packing = _packing(ring, A)
    n, zero, one = len(A), packing.zero, packing.one
    work = [row + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(packing.reduced_matrix(A))]
    if _rref(packing, work) != list(range(n)):
        raise DomainError("matrix is not invertible over the local ring")
    return packing.element_matrix([row[n:] for row in work])


def bilinear(G, v, w, zero):
    """v^T G w, summed from `zero` over the nonzero entries of v, G and w."""
    acc = zero
    for vi, row in zip(v, G):
        if vi:
            for gij, wj in zip(row, w):
                if gij and wj:
                    acc = acc + vi * gij * wj
    return acc


def rank_field(ring, A):
    """Rank of a matrix mod p, by row reduction: over F_q its rank, over
    W_n(F_q) that of its image over the residue field, since `_rref` pivots
    on units and a column with no unit entry is zero mod p."""
    packing = _packing(ring, A)
    return len(_rref(packing, packing.reduced_matrix(A)))


def rref_field(ring, A):
    """Reduced row echelon form with unit pivots; returns (rref, pivots).
    Over a field this is the usual RREF; over W_n(F_q) a column with no
    unit entry below the pivot rows is passed over."""
    packing = _packing(ring, A)
    rows = packing.reduced_matrix(A)
    work = rows[:]
    pivots = _rref(packing, work)
    # an untouched (or equal) input row is copied: cheaper than building new elements
    element = packing.element
    return [A[rows.index(r)][:] if r in rows else [element(x) for x in r]
            for r in work], pivots


def _rref(packing, work):
    """Gauss-Jordan on rows of reduced coefficients, in place, pivoting on
    the first unit in each column; returns the pivot columns.  A row that a
    step changes is replaced by a new list."""
    rows = len(work)
    cols = len(work[0]) if rows else 0
    is_unit, zero, one = packing.is_unit, packing.zero, packing.one
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        for piv in range(rank, rows):
            if is_unit(work[piv][col]):
                break
        else:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        if top[col] != one:
            top = work[rank] = packing.scale(packing.inverse(top[col]), top)
        for r in range(rows):
            if r != rank and work[r][col] != zero:
                work[r] = packing.submul(work[r], work[r][col], top)
        pivots.append(col)
        if rank + 1 == rows:
            break
    return pivots


def smith_form_local(ring, A):
    """Smith normal form over W_n(F_q), where every elementary divisor is a
    power of p.  Returns (divisor valuations, U, V) with U A V = diag(p^v).

    U, V are invertible; entries of the diagonal beyond min(rows, cols)
    valuations are reported as ring.n (zero at this precision).

    Clearing the pivot's column leaves zeros below it, so clearing its row
    would change only row t of S, which no later step reads: the column
    operations act on V alone, kept by its columns, the rows of VT."""
    packing = _packing(ring, A)
    rows, cols, n = len(A), len(A[0]), ring.n
    S = packing.reduced_matrix(A)
    zero, one = packing.zero, packing.one
    U = [[one if i == j else zero for j in range(rows)] for i in range(rows)]
    VT = [[one if i == j else zero for j in range(cols)] for i in range(cols)]
    valuation, divide, submul = packing.valuation, packing.divide, packing.submul
    vals = []
    for t in range(min(rows, cols)):
        v, bi, bj = min((valuation(S[i][j]), i, j) for i in range(t, rows) for j in range(t, cols))
        if v >= n:
            vals.extend([n] * (min(rows, cols) - t))
            break
        S[t], S[bi] = S[bi], S[t]
        U[t], U[bi] = U[bi], U[t]
        VT[t], VT[bj] = VT[bj], VT[t]
        for row in S:
            row[t], row[bj] = row[bj], row[t]
        # normalize pivot to exactly p^v
        unit = divide(S[t][t], v)
        if unit != one:
            uinv = packing.inverse(unit)
            S[t], U[t] = packing.scale(uinv, S[t]), packing.scale(uinv, U[t])
        for i in range(t + 1, rows):
            if S[i][t] != zero:
                f = divide(S[i][t], v)
                S[i], U[i] = submul(S[i], f, S[t]), submul(U[i], f, U[t])
        for j in range(t + 1, cols):
            if S[t][j] != zero:
                VT[j] = submul(VT[j], divide(S[t][j], v), VT[t])
        vals.append(v)
    return vals, packing.element_matrix(U), packing.element_matrix(transpose(VT))
