"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route than
the code under test: naive dict-based polynomial arithmetic for series
multiplication and composition, an integer-table Grassmannian filter for
the local-model fiber, a standalone row reduction for ranks, and
brute-force point counts of quadrics over integer-table fields.  Only
base coefficient arithmetic is shared, and it is itself checked against
the ghost-component construction of Witt-vector arithmetic in this file.
`int_poly_mul_mod` and `int_poly_pow_mod` also check the one polynomial
kernel of `sll.base_rings` directly, `int_poly_reduce` (the 2m - 1 slots of
a packed sum reduced one degree at a time) checks the in-int fold of
`CoeffPacking`, and `reducible_monics` (a sieve of products) checks its
irreducibility test.
`naive_mat_mul` and `naive_mat_vec` are the slow path of the packed
`linalg.mat_mul` and `linalg.mat_vec`: each entry summed with `Residue`
`*` and `+`.
`loop_rref`, `loop_invert` and `loop_smith_form` are the `Residue` loops
that `linalg.rref_field`, `linalg.invert` and `linalg.smith_form_local`
replaced by row operations on reduced coefficients; they invert a unit x
as x^(u - 1), u the order of the unit group, and read valuations and
divide by p^k with `loop_valuation` and `loop_divide_exact_p`.
`naive_normal_form` is the slow path of `sll.singularity`: the same
absorbing steps on coefficient dicts, composed by `dict_compose`, with the
Gram inverse from `loop_invert`.
`filter_special_fiber` (every echelon plane, filtered by its pairing) and
`rank_tangent_dimension` (the tangent equation on a complement found by
rank tests) are the references for the fiber and tangent dimensions that
`sll.local_model` reads off the Schubert-divisor description; they share
`IsotropicPlane` with it, but not its generator, and pair vectors with
`matrix_pairing`, v^T J w over this file's own copy of the pairing matrix,
not with `local_model.pairing_value`.  The brute-force witness search,
the digit-by-digit search that the closed form of `sll.dieudonne`
replaced, takes its Smith data from `loop_smith_form` and shares neither
that closed form nor its witness completion: it tests VM membership with
`loop_in_vm_mod` (one `linalg.mat_vec` per generator, valuations by
`loop_valuation`, at every level and to precision min(v_i, k), so it does
not assume the divisors (1, 1, p, p) of V that the closed form certifies
and uses) and completes a witness with `pairwise_complete_witness` (the
basis and its Gram matrix built pair by pair), the per-vector routes that
the whole-matrix products of `sll.dieudonne` replaced.  Its exhaustion
is evidence, not proof.  `hodge_point_in_radical` (J V by
`naive_mat_mul`, valuations by `loop_valuation`) is the reference for
the closed form's proof that no witness exists.  `per_column_kernel_type` applies F and V to the
dual-lattice columns one at a time, the route `kernel_type` replaced.
`digit_congruent` compares leading Teichmuller digits, the route that the
valuation test for a' = a mod p^k in `singularity.normal_form` replaced.
`loop_valuation` and `loop_divide_exact_p` (per-coefficient division
loops), `series_pairing_relation` (`linalg.bilinear` over the series ring)
and `stacked_rank_frame_error` (the rank of [V mod p | e_Y]) are the longer
routes that the rings' `valuation`, `WittRing.divide_exact_p`,
`deformation.pairing_relation` and the `HodgeFrame` test replaced.
`power_inverse` (x^(q - 2) over F_q), `loop_is_unit` (x != 0 over F_q) and
`power_frobenius` (x^p and x^(p^(m-1)) over F_q) are the field routes that
the ring interface written once for F_q and W_n(F_q) replaced.
`residue_base_change` is `dieudonne.base_change` on `Residue` matrices, by
`loop_invert`, `naive_mat_mul` and `power_frobenius`.
`iterative_p_rank` (images of F-bar spanned and row-reduced round by round),
`rank_checked_validate` (the polarization check with its mod-p rank test)
and `diagonal_dual_columns` (the diagonal matrix of p^{1-v} multiplied in)
are the longer routes that `sll.dieudonne` replaced by closed forms.
`residue_rank_nondegenerate` (full rank of the Gram matrix mod p, built
here from the form's coefficients) is the non-degeneracy test that the
inverse of `quadforms.gram_inverse` replaced.
`reduce_mod_p` maps a series over W_n(F_q) onto its residue field.
"""

from __future__ import annotations

import functools
import itertools

from sll import linalg
from sll.base_rings import FiniteField, WittElement
from sll.deformation import relation_ring
from sll.dieudonne import LagrangianSearchResult, LagrangianWitness, a_number, dual_lattice
from sll.errors import DomainError, PreconditionError
from sll.local_model import IsotropicPlane, field_for_q
from sll.series import SeriesRing


# -- naive sparse polynomial arithmetic (independent of sll.series internals)


def dict_of(series):
    return dict(series.coeffs)


def dict_add(a, b):
    out = dict(a)
    for e, c in b.items():
        if e in out:
            s = out[e] + c
            if s:
                out[e] = s
            else:
                del out[e]
        else:
            out[e] = c
    return out


def dict_scale(a, c):
    """c times every coefficient, zeros dropped."""
    return {e: v for e, v in ((e, c * v) for e, v in a.items()) if v}


def dict_mul(a, b, degree):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) >= degree:
                continue
            prod = c1 * c2
            if e in out:
                s = out[e] + prod
                if s:
                    out[e] = s
                else:
                    del out[e]
            elif prod:
                out[e] = prod
    return out


def naive_mul(f, g):
    """Convolution product recomputed naively; returns a coefficient dict."""
    return dict_mul(dict_of(f), dict_of(g), f.parent.degree)


def dict_compose(f, phis, degree):
    """f(phi_1, ..., phi_n) for coefficient dicts, by naive composition."""
    zero = (0,) * len(phis)
    out = {}
    for e, c in f.items():
        term = {zero: c}
        for i, ei in enumerate(e):
            for _ in range(ei):
                term = dict_mul(term, phis[i], degree)
        out = dict_add(out, term)
    return out


def naive_compose(f, images):
    """f(phi_1, ..., phi_n) recomputed by naive polynomial composition."""
    return dict_compose(f.coeffs, [dict_of(phi) for phi in images], f.parent.degree)


def series_equals_dict(series, d):
    return dict(series.coeffs) == {e: c for e, c in d.items() if c}


def reduce_mod_p(series):
    """The image of a series over W_n(F_q) in the same series ring over F_q."""
    ring = series.parent
    witt = ring.coeff_ring
    image = SeriesRing(witt.field, ring.nvars, ring.degree, ring.var_names)
    return image.from_terms((e, witt.residue(c)) for e, c in series.coeffs.items())


# -- matrix products on Residue arithmetic (the slow path of sll.linalg)


def naive_mat_mul(A, B):
    """A B summed entry by entry with Residue * and +."""
    out = []
    for row in A:
        out_row = []
        for col in zip(*B):
            acc = row[0] * col[0]
            for a, b in zip(row[1:], col[1:]):
                acc = acc + a * b
            out_row.append(acc)
        out.append(out_row)
    return out


def naive_mat_vec(A, v):
    """A v summed entry by entry with Residue * and +."""
    return [row[0] for row in naive_mat_mul(A, [[x] for x in v])]


# -- the normal-form reduction on Residue dicts (the slow path of sll.singularity)


def _gram_inverse(ring, g):
    """The inverse of the Gram matrix of the degree-2 part of g, by
    `loop_invert` over the Witt ring."""
    n = len(next(iter(g)))
    gram = [[ring.zero()] * n for _ in range(n)]
    for e, c in g.items():
        if sum(e) == 2:
            i, j = [k for k, ek in enumerate(e) for _ in range(ek)]
            gram[i][j] = gram[i][j] + c
            gram[j][i] = gram[j][i] + c
    return loop_invert(ring, gram)


def absorbing_step(g, d, ginv, variables):
    """The substitution x_j -> x_j - sum_k ginv[j][k] h_k, where the
    degree-d part of g is sum_i x_i h_i, each monomial given to its
    smallest-index variable (None if there is no such part)."""
    h = [{} for _ in variables]
    for e, c in g.items():
        if sum(e) == d:
            i = next(k for k, ek in enumerate(e) if ek)
            h[i][e[:i] + (e[i] - 1,) + e[i + 1:]] = c
    if not any(h):
        return None
    step = []
    for row, x in zip(ginv, variables):
        terms = dict(x)
        for gk, hk in zip(row, h):
            terms = dict_add(terms, {e: -(gk * c) for e, c in hk.items() if gk * c})
        step.append(terms)
    return step


def compose(g, step, d, degree):
    """g(step) for a degree-d absorbing step, substituting only below the
    cut degree - d + 2 and adding the rest back unchanged."""
    cut = degree - d + 2
    low = {e: c for e, c in g.items() if sum(e) < cut}
    high = {e: c for e, c in g.items() if sum(e) >= cut}
    return dict_add(dict_compose(low, step, degree), high)


def naive_normal_form(f):
    """(phi, a', Q') of `sll.singularity.reduce_to_quadric(f)`, recomputed by
    absorbing steps on {exponents: coefficient} dicts and naive composition:
    phi as one dict per component, a' the constant term of the shifted f and
    Q' the degree-2 part of the stripped f, as a dict."""
    ring, D, n = f.parent.coeff_ring, f.parent.degree, f.parent.nvars
    zero = (0,) * n
    variables = [{tuple(int(i == j) for j in range(n)): ring.one()} for i in range(n)]
    g = dict_of(f)
    ginv = _gram_inverse(ring, g)
    b = [ring.zero()] * n
    for _ in range(2 * ring.n + 4):
        step = absorbing_step(g, 1, ginv, variables)
        if step is None:
            break
        g = dict_compose(g, step, D)
        b = [bi + si.get(zero, ring.zero()) for bi, si in zip(b, step)]
    else:
        raise AssertionError("linear-term iteration did not converge")
    a_prime = g.get(zero, ring.zero())
    ginv = _gram_inverse(ring, g)
    phi = variables
    for d in range(3, D):
        if max(map(sum, g), default=0) < d:
            break
        step = absorbing_step(g, d, ginv, variables)
        if step is None:
            continue
        g = compose(g, step, d, D)
        phi = [compose(c, step, d, D) for c in phi]
    phi = [dict_add(c, {zero: bi}) if bi else c for c, bi in zip(phi, b)]
    return phi, a_prime, {e: c for e, c in g.items() if sum(e) == 2}


# -- independent rank computation over a finite field


def independent_rank(field, rows):
    """Row count after a from-scratch forward elimination."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = field.invert(work[rank][col])
        work[rank] = [inv * x for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def residue_rank_nondegenerate(Q):
    """Whether the Gram matrix of the quadratic form Q, 2 q_ii on the
    diagonal and q_ij off it, has full rank over the residue field."""
    ring, n = Q.coeff_ring, Q.nvars
    field = ring.field
    gram = [[field.zero()] * n for _ in range(n)]
    for (i, j), c in Q.upper.items():
        c = ring.residue(c)
        gram[i][j] = gram[i][j] + c
        gram[j][i] = gram[j][i] + c
    return independent_rank(field, gram) == n


# -- row reductions on Residue entries (the slow path of sll.linalg)


def power_inverse(ring, x):
    """x^(u - 1) for a unit x, u = (q - 1) q^(n-1) the order of the unit group;
    over F_q = W_1(F_q) that is x^(q - 2)."""
    q = ring.field.q
    return x ** ((q - 1) * q ** (ring.n - 1) - 1)


def loop_rref(ring, A):
    """(rref, pivots) of `linalg.rref_field`: Gauss-Jordan on `Residue`
    entries, pivoting on the first unit of each column (a coefficient prime
    to p) and leaving a pivot equal to one unscaled."""
    work = [row[:] for row in A]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots = []
    rank = 0
    one = ring.one()
    for col in range(cols):
        piv = next((r for r in range(rank, rows)
                    if any(c % ring.p for c in work[r][col].coeffs)), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot = work[rank][col]
        if pivot != one:
            inv = power_inverse(ring, pivot)
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


def loop_invert(ring, A):
    """The right half of `loop_rref` of [A | I]; DomainError unless the
    left half reduces to I."""
    n = len(A)
    identity = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    work, pivots = loop_rref(ring, [row + idr for row, idr in zip(A, identity)])
    if pivots != list(range(n)):
        raise DomainError("matrix is not invertible over the local ring")
    return [row[n:] for row in work]


def loop_smith_form(ring, A):
    """(valuations, U, V) of `linalg.smith_form_local` over W_n(F_q): the
    pivot is the first entry of least valuation in row-major order, scaled
    to p^v, and row and column operations on `Residue` entries clear its
    column and its row, in S, U and V alike."""
    rows, cols = len(A), len(A[0])
    S = [row[:] for row in A]
    U = [[ring.one() if i == j else ring.zero() for j in range(rows)] for i in range(rows)]
    V = [[ring.one() if i == j else ring.zero() for j in range(cols)] for i in range(cols)]
    vals = []
    for t in range(min(rows, cols)):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = loop_valuation(ring, S[i][j])
                if best is None or v < best[0]:
                    best = (v, i, j)
        if best[0] >= ring.n:
            vals.extend([ring.n] * (min(rows, cols) - t))
            break
        v, bi, bj = best
        S[t], S[bi] = S[bi], S[t]
        U[t], U[bi] = U[bi], U[t]
        for row in S:
            row[t], row[bj] = row[bj], row[t]
        for row in V:
            row[t], row[bj] = row[bj], row[t]
        uinv = power_inverse(ring, loop_divide_exact_p(ring, S[t][t], v))
        S[t] = [uinv * x for x in S[t]]
        U[t] = [uinv * x for x in U[t]]
        for i in range(t + 1, rows):
            if S[i][t]:
                f = loop_divide_exact_p(ring, S[i][t], v)
                S[i] = [x - f * y for x, y in zip(S[i], S[t])]
                U[i] = [x - f * y for x, y in zip(U[i], U[t])]
        for j in range(t + 1, cols):
            if S[t][j]:
                f = loop_divide_exact_p(ring, S[t][j], v)
                for row in S:
                    row[j] = row[j] - f * row[t]
                for row in V:
                    row[j] = row[j] - f * row[t]
        vals.append(v)
    return vals, U, V


# -- the local-model fiber by filtering, tangent dimensions by rank tests


@functools.lru_cache(maxsize=16)
def _mod_p_pairing_matrix(field):
    """psi(e1, e4) = p, psi(e2, e3) = 1, alternating, mapped into F_q."""
    p = field.p
    rows = [[0, 0, 0, p], [0, 0, 1, 0], [0, -1, 0, 0], [-p, 0, 0, 0]]
    return [[field.from_int(x) for x in row] for row in rows]


def matrix_pairing(field, v, w):
    """v^T J w over F_q, summed over all sixteen entries of J."""
    acc = field.zero()
    for vi, row in zip(v, _mod_p_pairing_matrix(field)):
        for jij, wj in zip(row, w):
            acc = acc + vi * jij * wj
    return acc


def filter_special_fiber(q):
    """Every echelon 2-plane of F_q^4 whose basis pairs to zero, ordered by
    echelon cell and then by free entries.  For an alternating form a plane
    span(v, w) is isotropic iff psi(v, w) = 0, a single condition."""
    field = field_for_q(q)
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
                if matrix_pairing(field, row1, row2):
                    continue
                out.append(IsotropicPlane(field, (tuple(row1), tuple(row2))))
    return out


def rank_tangent_dimension(plane):
    """Dimension of {phi : P -> F_q^4 / P with psi(phi v, w) + psi(v, phi w)
    = 0}, from the pairings of the plane with a complement of standard
    vectors chosen by rank tests."""
    field = plane.field
    v, w = plane.vectors()
    if matrix_pairing(field, v, w):
        raise PreconditionError("plane is not isotropic")
    comp = []
    for k in range(4):
        e = [field.one() if i == k else field.zero() for i in range(4)]
        if independent_rank(field, plane.vectors() + comp + [e]) == 2 + len(comp) + 1:
            comp.append(e)
        if len(comp) == 2:
            break
    u1, u2 = comp
    row = [
        matrix_pairing(field, u1, w),
        matrix_pairing(field, u2, w),
        matrix_pairing(field, v, u1),
        matrix_pairing(field, v, u2),
    ]
    return 4 - (1 if any(row) else 0)


# -- valuations by division loops


def loop_valuation(ring, x):
    """Index of the first nonzero Teichmuller digit of x in W_n(F_q), F_q
    = W_1(F_q) included: the least number of times p divides a coefficient,
    n for zero."""
    v = ring.n
    for c in x.coeffs:
        if c:
            w = 0
            while c % ring.p == 0:
                c //= ring.p
                w += 1
            v = min(v, w)
    return v


def loop_is_unit(ring, x):
    """x != 0 over F_q; over W_n(F_q) a `loop_valuation` of 0."""
    return bool(x) if isinstance(ring, FiniteField) else loop_valuation(ring, x) == 0


def power_frobenius(ring, x, k=1):
    """sigma^k(x) by element powers: x^(p^k) over F_q.  Over W_n(F_q), where
    a power is not additive, the coefficient a_i of t^i in x, t the class of
    the generator (its own Teichmuller lift), goes onto t^(i p^k)."""
    e = ring.p ** k
    if isinstance(ring, FiniteField):
        return x ** e
    t = ring.gen()
    return sum((ring.element(a) * t ** (i * e) for i, a in enumerate(x.coeffs)), ring.zero())


def loop_divide_exact_p(ring, x, k):
    """x / p^k, coefficient by coefficient; DomainError unless p^k divides
    every coefficient."""
    pk = ring.p ** k
    out = []
    for c in x.coeffs:
        if c % pk:
            raise DomainError(f"element not divisible by p^{k}")
        out.append(c // pk)
    return WittElement(ring, tuple(out))


# -- deformation relations and Hodge frames by matrix routes


def series_pairing_relation(J, left, right, x_indices):
    """<left~, right~> as v^T J w over the relation's series ring, with
    left~ = e_left + t11 e_x1 + t12 e_x2 and right~ = e_right + t21 e_x1 +
    t22 e_x2."""
    sring = relation_ring(J[0][0].ring)
    t = sring.variables()  # t11, t12, t21, t22

    def deformed(index, ts):
        vec = [sring.zero()] * 4
        vec[index] = sring.one()
        for x, tk in zip(x_indices, ts):
            vec[x] = vec[x] + tk
        return vec

    J = linalg.mat_map(J, sring.constant)
    return linalg.bilinear(J, deformed(left, t[:2]), deformed(right, t[2:]), sring.zero())


def stacked_rank_frame_error(module, Y_indices, X_indices):
    """The message `HodgeFrame` raises for this frame, None if it accepts
    it: the Y slots span the image of V mod p when stacking e_Y next to
    V mod p leaves the rank at 2."""
    if sorted([*Y_indices, *X_indices]) != [0, 1, 2, 3]:
        return "frame indices must partition the basis"
    ring = module.ring
    fld = ring.field
    vbar = [[ring.residue(x) for x in row] for row in module.V_matrix]
    if independent_rank(fld, vbar) != 2:
        return "V has the wrong mod-p rank for a Hodge frame"
    picked = [[fld.one() if r == i else fld.zero() for i in Y_indices] for r in range(4)]
    if independent_rank(fld, [vrow + prow for vrow, prow in zip(vbar, picked)]) != 2:
        return "chosen Y vectors do not span the image of V mod p"
    return None


# -- integer polynomials mod a monic modulus, and integer-table finite fields
# for the Grassmannian filter oracle


def int_poly_mul_mod(a, b, mod, p):
    """a * b reduced by the monic `mod`, coefficients mod p (any modulus)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return int_poly_reduce(out, mod, p)


def int_poly_reduce(a, mod, p):
    """The integer polynomial a (low degree first, any coefficient size)
    reduced by the monic `mod`, coefficients mod p: the top coefficient
    cleared one degree at a time."""
    m = len(mod) - 1
    out = [c % p for c in a]
    for k in range(len(out) - 1, m - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(m + 1):
                out[k - m + j] = (out[k - m + j] - c * mod[j]) % p
    out = out[:m]
    return tuple(out) + (0,) * (m - len(out))


def int_poly_pow_mod(a, e, mod, p):
    """a^e reduced by the monic `mod`, coefficients mod p, by squaring."""
    out = int_poly_mul_mod((1,), (1,), mod, p)
    while e:
        if e & 1:
            out = int_poly_mul_mod(out, a, mod, p)
        a = int_poly_mul_mod(a, a, mod, p)
        e >>= 1
    return out


# -- the ghost-component construction of Witt-vector arithmetic
#
# The classical route: Witt coordinates x_i have ghost components
# w_k = sum_{i <= k} p^i x_i^(p^(k-i)), which add and multiply
# componentwise; solving back gives the coordinates of the sum or product.
# It runs over (Z/p^n)[x]/(field modulus) with the integer polynomials
# above.  That is exact enough: a = b mod p^s gives a^(p^j) = b^(p^j)
# mod p^(s+j), so a solved x_i, known mod p^(n-i), still fixes
# p^i x_i^(p^(k-i)) mod p^n, and the digit x_k mod p needs only w_k mod
# p^(k+1).  Frobenius on F_q is a p-th power here too: of `sll` only
# `ring.digits` (the digits under test) and element construction are used.


def _ghost_components(coords, p, n, mod):
    pn = p ** n
    out = []
    for k in range(n):
        w = (0,) * (len(mod) - 1)
        for i in range(k + 1):
            t = int_poly_pow_mod(coords[i], p ** (k - i), mod, pn)
            w = tuple((a + p ** i * b) % pn for a, b in zip(w, t))
        out.append(w)
    return out


def _coordinates_from_ghosts(ghosts, p, n, mod):
    pn = p ** n
    coords = []
    for k, w in enumerate(ghosts):
        for i, x in enumerate(coords):
            t = int_poly_pow_mod(x, p ** (k - i), mod, pn)
            w = tuple((a - p ** i * b) % pn for a, b in zip(w, t))
        assert not any(c % p ** k for c in w), "ghost solve-back lost integrality"
        coords.append(tuple(c // p ** k for c in w))
    return coords


@functools.lru_cache(maxsize=4096)
def _element_ghosts(ring, coeffs):
    """Ghost vector of the element with these coefficients: its Teichmuller
    digits d_i give the Witt coordinates x_i = d_i^(p^i).  Memoized, since
    oracle checks run many pairs over few elements."""
    p, mod = ring.p, ring.field.modulus
    digits = ring.digits(ring.element(coeffs))
    coords = [int_poly_pow_mod(d.coeffs, p ** i, mod, p) for i, d in enumerate(digits)]
    return tuple(_ghost_components(coords, p, ring.n, mod))


def _ghost_digits(a, b, combine):
    ring = a.ring
    p, m, mod = ring.p, ring.field.m, ring.field.modulus
    ghosts = [combine(x, y) for x, y in
              zip(_element_ghosts(ring, a.coeffs), _element_ghosts(ring, b.coeffs))]
    coords = _coordinates_from_ghosts(ghosts, p, ring.n, mod)
    # d_i = x_i^(p^(-i)), and p^(-i) = p^(-i mod m) on F_q
    return tuple(
        ring.field.element(int_poly_pow_mod(tuple(c % p for c in x), p ** (-i % m), mod, p))
        for i, x in enumerate(coords)
    )


def ghost_sum_digits(a, b):
    """Digits of a + b predicted by the ghost-component construction."""
    pn = a.ring.p ** a.ring.n
    return _ghost_digits(a, b, lambda x, y: tuple((u + v) % pn for u, v in zip(x, y)))


def ghost_product_digits(a, b):
    """Digits of a * b predicted by the ghost-component construction."""
    ring = a.ring
    return _ghost_digits(a, b, lambda x, y: int_poly_mul_mod(x, y, ring.field.modulus, ring.p ** ring.n))


def _has_no_root(poly, p):
    """Irreducibility test valid for degree <= 3: no root in F_p."""
    for r in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    return True


def reducible_monics(p, m):
    """Every monic polynomial of degree m over F_p that is reducible, by a
    sieve: all products of two monic polynomials of lower degree."""
    def monics(d):
        return [tuple(t) + (1,) for t in itertools.product(range(p), repeat=d)]

    out = set()
    for d in range(1, m // 2 + 1):
        for a in monics(d):
            for b in monics(m - d):
                prod = [0] * (m + 1)
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        prod[i + j] = (prod[i + j] + ai * bj) % p
                out.add(tuple(prod))
    return out


def first_irreducible(p, m, irreducible=_has_no_root):
    """The first monic poly of degree m over F_p, in lexicographic order with
    the constant term slowest, that passes `irreducible(poly, p)`: a full
    scan, constant term 0 included."""
    if m == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=m):
        poly = tuple(tail) + (1,)
        if irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible found")


class TableField:
    """F_q as index tables, independent of sll.base_rings."""

    def __init__(self, q):
        p = next(r for r in (2, 3, 5, 7) if q % r == 0)
        m = 0
        qq = q
        while qq % p == 0:
            qq //= p
            m += 1
        assert qq == 1
        self.p, self.m, self.q = p, m, q
        self.modulus = first_irreducible(p, m)
        self.elems = list(itertools.product(range(p), repeat=m))
        self.index = {e: i for i, e in enumerate(self.elems)}
        self.add_table = [
            [self.index[tuple((x + y) % p for x, y in zip(a, b))] for b in self.elems]
            for a in self.elems
        ]
        self.mul_table = [
            [self.index[int_poly_mul_mod(a, b, self.modulus, p)] for b in self.elems]
            for a in self.elems
        ]
        self.neg = [self.index[tuple((-x) % p for x in a)] for a in self.elems]

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]


def projective_quadric_points(F, nvars, upper):
    """Number of points of the projective quadric sum c_ij x_i x_j = 0 over
    the TableField F, where `upper` maps (i, j), i <= j, to element indices:
    the affine zeros other than the origin, divided by q - 1."""
    zeros = 0
    for v in itertools.product(range(F.q), repeat=nvars):
        acc = 0
        for (i, j), c in upper.items():
            acc = F.add(acc, F.mul(c, F.mul(v[i], v[j])))
        zeros += acc == 0
    return (zeros - 1) // (F.q - 1)


def grassmannian_isotropic_count(q):
    """Number of isotropic 2-planes in F_q^4 for the degenerate pairing
    psi(e2,e3) = 1 = -psi(e3,e2) (the mod-p pairing), counted by filtering
    ordered independent pairs and dividing by the basis count."""
    F = TableField(q)
    one = F.index[(1,) + (0,) * (F.m - 1)]

    def psi(v, w):
        # v2*w3 - v3*w2 in index arithmetic
        t1 = F.mul(v[1], w[2])
        t2 = F.mul(v[2], w[1])
        return F.add(t1, F.neg[t2])

    vectors = list(itertools.product(range(q), repeat=4))
    zero_vec = vectors[0]
    count = 0
    for v in vectors:
        if v == zero_vec:
            continue
        # span(v) as a set for the independence test
        span = set()
        for c in range(q):
            span.add(tuple(F.mul(c, x) for x in v))
        for w in vectors:
            if w in span:
                continue
            if psi(v, w) == 0:
                count += 1
    bases_per_plane = (q * q - 1) * (q * q - q)
    assert count % bases_per_plane == 0
    return count // bases_per_plane


# -- Dieudonne invariants by their longer routes (the slow paths of sll.dieudonne)


def iterative_p_rank(module):
    """The stable image of F-bar, spanned and row-reduced four times over."""
    fld = module.ring.field
    fbar = linalg.mat_map(module.F_matrix, module.ring.residue)
    span = linalg.identity(fld, 4)  # rows: the basis vectors
    for _ in range(4):
        images = [linalg.mat_vec(fbar, [fld.frobenius(c) for c in v]) for v in span]
        reduced, _ = linalg.rref_field(fld, images)
        span = [row for row in reduced if any(row)]
        if not span:
            return 0
    return len(span)


def rank_checked_validate(module):
    """`validate()` with the polarization check also asking that J mod p
    have rank 2, which its Smith divisors (0, 0, 1, 1) already imply."""
    checks = module.validate()
    jbar = linalg.mat_map(module.J, module.ring.residue)
    checks["polarization_degree_p2"] = (checks["polarization_degree_p2"]
                                        and independent_rank(module.ring.field, jbar) == 2)
    return checks


def diagonal_dual_columns(module):
    """The columns of p J^{-T} as V diag(p^{1-v}) U from the Smith form
    J = U^{-1} diag(p^v) V^{-1}, with the diagonal matrix multiplied in;
    None for a pairing of another polarization degree."""
    ring = module.ring
    vals, U, V = loop_smith_form(ring, [row[:] for row in module.J])
    if vals not in ([0, 0, 1, 1], [0, 0, 0, 0]):
        return None
    scale = [[ring.from_int(ring.p ** (1 - v)) if i == j else ring.zero()
              for j in range(4)] for i, v in enumerate(vals)]
    return naive_mat_mul(V, naive_mat_mul(scale, U))


def per_column_kernel_type(module):
    """`kernel_type` with F and V applied to one dual-lattice column at a
    time, each image by `linalg.mat_vec` on the twisted column."""
    if a_number(module) != 2:
        return "NotSuperspecial"
    ring = module.ring
    for col in dual_lattice(module).basis_columns:
        for matrix, twist in ((module.F_matrix, ring.frobenius),
                              (module.V_matrix, ring.frobenius_inv)):
            image = linalg.mat_vec(matrix, [twist(x) for x in col])
            if any(ring.residue(x) for x in image):
                return "NonAlphaSquare"
    return "AlphaSquare"


def digit_congruent(ring, x, y, k):
    """x = y mod p^k, read off as equal first k Teichmuller digits."""
    return ring.digits(x)[:k] == ring.digits(y)[:k]


# -- brute-force Lagrangian witness search


def loop_in_vm_mod(ring, vals, U, vec, k):
    """vec in VM modulo p^k, for the Smith data (vals, U, _) of V_matrix:
    (U vec)_i = 0 mod p^{min(v_i, k)} for every i."""
    coords = linalg.mat_vec(U, vec)
    return all(loop_valuation(ring, c) >= min(v, k) for v, c in zip(vals, coords))


def hodge_point_in_radical(module):
    """VM/pM lies in R, the radical of the pairing mod p: every pairing
    <e_i, V e_j>, an entry of J V by `naive_mat_mul`, lies in pW."""
    ring = module.ring
    return all(loop_valuation(ring, x) >= 1
               for row in naive_mat_mul(module.J, module.V_matrix) for x in row)


def residue_base_change(module, g):
    """(F, V, J) of `dieudonne.base_change` on `Residue` entries:
    g^-1 F sigma(g), g^-1 V sigma^-1(g) and g^T J g, by `loop_invert`,
    `naive_mat_mul` and `power_frobenius` (the ring's own `frobenius` runs
    on the slot ints that base change uses)."""
    ring = module.ring
    ginv = loop_invert(ring, g)
    images = [[[power_frobenius(ring, x, k) for x in row] for row in g]
              for k in (1, ring.field.m - 1)]
    gt = [list(col) for col in zip(*g)]
    return (naive_mat_mul(ginv, naive_mat_mul(module.F_matrix, images[0])),
            naive_mat_mul(ginv, naive_mat_mul(module.V_matrix, images[1])),
            naive_mat_mul(gt, naive_mat_mul(module.J, g)))


def pairwise_complete_witness(module, g1, g2):
    """Complete an isotropic direct-summand pair to a basis X1, X2, Y1, Y2
    with <X1,Y1> = 1, <X2,Y2> = p and all other pairings zero, or None;
    every pairing taken one pair at a time."""
    ring = module.ring
    # A[j] = (<e_j, g1>, <e_j, g2>)
    A = [[a, b] for a, b in zip(linalg.mat_vec(module.J, g1), linalg.mat_vec(module.J, g2))]
    vals, U, V = loop_smith_form(ring, A)
    if vals != [0, 1]:
        return None
    y1 = [g1[i] * V[0][0] + g2[i] * V[1][0] for i in range(4)]
    y2 = [g1[i] * V[0][1] + g2[i] * V[1][1] for i in range(4)]
    x1 = list(U[0])
    x2 = list(U[1])
    c = module.pair(x1, x2)
    if c:
        x2 = [a - c * b for a, b in zip(x2, y1)]
    basis = [x1, x2, y1, y2]
    gram = [[module.pair(u, v) for v in basis] for u in basis]
    p = ring.p
    shape = [[0, 0, 1, 0], [0, 0, 0, p], [-1, 0, 0, 0], [0, -p, 0, 0]]
    if gram != [[ring.from_int(x) for x in row] for row in shape]:
        return None
    if not ring.is_unit(linalg.det(ring, basis)):
        return None
    return LagrangianWitness(y1, y2, x1, x2)


def brute_force_witness_search(module):
    """The Lagrangian witness search as it was before linear lifting: all
    q^4 digit choices at every level.

    Digit-by-digit backtracking search for a rank-2 direct summand
    L <= VM, isotropic at full precision, completable to the standard
    pairing shape.  A found witness is a proof; exhaustion is evidence
    only, since finite precision cannot certify non-liftability."""
    ring = module.ring
    n = ring.n
    field = ring.field
    vals, U, _ = loop_smith_form(ring, [row[:] for row in module.V_matrix])
    field_elts = sorted(field.elements(), key=lambda e: e.coeffs)
    # lifts[k][i] = [field_elts[i]] p^k, the value a digit choice adds at level k
    lifts = [[ring.teichmuller(e) * ring.from_int(ring.p ** k) for e in field_elts]
             for k in range(n)]
    nodes = 0

    for pivots in itertools.combinations(range(4), 2):
        nonpivot = [j for j in range(4) if j not in pivots]
        # free slots: (generator, position); generator 0 carries pivot[0]
        frees = [(0, nonpivot[0]), (0, nonpivot[1]), (1, nonpivot[0]), (1, nonpivot[1])]

        def dfs(level, g1, g2):
            nonlocal nodes
            if level:
                if not loop_in_vm_mod(ring, vals, U, g1, level):
                    return None
                if not loop_in_vm_mod(ring, vals, U, g2, level):
                    return None
                if loop_valuation(ring, module.pair(g1, g2)) < level:
                    return None
            if level == n:
                return pairwise_complete_witness(module, g1, g2)
            for combo in itertools.product(lifts[level], repeat=4):
                nodes += 1
                h = [g1[:], g2[:]]
                for (slot_idx, pos), lift in zip(frees, combo):
                    h[slot_idx][pos] = h[slot_idx][pos] + lift
                got = dfs(level + 1, *h)
                if got is not None:
                    return got
            return None

        e = [[ring.one() if j == i else ring.zero() for j in range(4)] for i in pivots]
        witness = dfs(0, *e)
        if witness is not None:
            return LagrangianSearchResult(
                True, witness, n, nodes, "witness found (proof of the pairing shape)"
            )
    return LagrangianSearchResult(
        False, None, n, nodes,
        f"no witness at precision {n}; exhaustion is evidence, not a proof",
    )
