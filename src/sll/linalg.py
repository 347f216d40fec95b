"""Small dense exact linear algebra over the package's coefficient rings.

Matrices are lists of row lists of ring elements.  `mat_mul`, `mat_vec`,
`invert`, `rref_field`, `rank_field` and `smith_form_local` take non-empty
rectangular matrices of one coefficient ring (F_q or W_n(F_q)) only, in
matching dimensions; anything else is a `DomainError`.  Each computes on
slot ints of the ring's `packing` (`base_rings.CoeffPacking`) and builds
ring elements once at the end: a product entry is one int sum of products
and one fold, and a row operation one int product and one fold per entry,
in straight-line code that the packing compiles once per shape; the
row-level `_rref`, `_invert` and `_smith` take rows of slot ints of any
packing (`sll.dieudonne`'s stored rows, `quadforms.gram_inverse`).  The
one Gauss-Jordan loop, `_rref`, pivots on units: over a field the nonzero
entries, over W_n(F_q) enough for every matrix invertible mod p, the only
kind `invert` accepts.
`bilinear` (v^T G w, skipping the zeros that the pairings are full of) and
`det` stay on `Residue` arithmetic.
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
    None, of every entry of the matrices; DomainError as for Residue operands,
    and for a matrix with no entry or with rows of unequal length."""
    for M in matrices:
        if not M or not M[0] or len(set(map(len, M))) > 1:
            raise DomainError("matrix is empty or ragged")
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
    return [row[0] for row in mat_mul(A, [[x] for x in v])]


def mat_map(A, f):
    return [[f(a) for a in row] for row in A]


def det(ring, A):
    """Determinant by cofactor expansion; exact over any commutative ring."""
    n = len(A)
    if n == 1:
        return A[0][0]
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
    """Inverse of a square matrix invertible mod the maximal ideal (`_invert`)."""
    packing = _packing(ring, A)
    return packing.element_matrix(_invert(packing, packing.reduced_matrix(A)))


def _invert(packing, A):
    """The right half of the reduced form of [A | I], A square of slot ints."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise DomainError("matrix is not square")
    work = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(A)]
    if _rref(packing, work) != list(range(n)):
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
    work = packing.reduced_matrix(A)
    pivots = _rref(packing, work)
    return packing.element_matrix(work), pivots


def _rref(packing, work):
    """Gauss-Jordan on rows of slot ints, in place, pivoting on the first
    unit in each column; returns the pivot columns.  A row that a step
    changes is replaced by a new list."""
    rows = len(work)
    cols = len(work[0]) if rows else 0
    is_unit = packing.is_unit
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
        if top[col] != 1:
            top = work[rank] = packing.scale(packing.inverse(top[col]), top)
        for r in range(rows):
            if r != rank and work[r][col]:
                work[r] = packing.submul(work[r], work[r][col], top)
        pivots.append(col)
        if rank + 1 == rows:
            break
    return pivots


def smith_form_local(ring, A):
    """Smith normal form over W_n(F_q), where every elementary divisor is a
    power of p.  Returns (divisor valuations, U, V) with U A V = diag(p^v)
    (`_smith`)."""
    packing = _packing(ring, A)
    vals, U, VT = _smith(packing, packing.reduced_matrix(A))
    return vals, packing.element_matrix(U), packing.element_matrix(transpose(VT))


def _smith(packing, A):
    """(valuations, U, VT) of a matrix A of slot ints, left unchanged, with
    U A VT^T = diag(p^v), U and VT invertible, and valuations beyond
    min(rows, cols) reported as n (zero at this precision).

    Clearing the pivot's column leaves zeros below it, so clearing its row
    would change only row t of S, which no later step reads: the column
    operations act on V alone, kept by its columns, the rows of VT."""
    rows, cols, n = len(A), len(A[0]), packing.n
    S = [row[:] for row in A]
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    VT = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
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
        if unit != 1:
            uinv = packing.inverse(unit)
            S[t], U[t] = packing.scale(uinv, S[t]), packing.scale(uinv, U[t])
        for i in range(t + 1, rows):
            if S[i][t]:
                f = divide(S[i][t], v)
                S[i], U[i] = submul(S[i], f, S[t]), submul(U[i], f, U[t])
        for j in range(t + 1, cols):
            if S[t][j]:
                VT[j] = submul(VT[j], divide(S[t][j], v), VT[t])
        vals.append(v)
    return vals, U, VT
