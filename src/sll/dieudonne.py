"""Rank-4 quasi-polarized Dieudonne modules over W_n(F_q).

Conventions (fixed throughout the package):
  * covariant: F is sigma-semilinear, V is sigma^{-1}-semilinear,
    FV = VF = p;
  * operators act by matrix times twisted coordinates:
    F(x) = F_matrix . sigma(x), V(x) = V_matrix . sigma^{-1}(x), so the
    matrix columns are the images of the basis vectors and FV = p becomes
    the clean identity F_matrix . sigma(V_matrix) = p . Id;
  * the pairing is <x, y> = x^T J y with J alternating of determinant
    unit * p^2 (elementary divisors 1, 1, p, p);
  * the p-rank is computed as the stable rank of F mod p (etale summands
    contribute bijective F-bar, multiplicative and local-local summands
    nilpotent F-bar), validated against the standard fixtures.

The dual lattice is represented integrally as p*M^t to avoid fractional
entries; every containment test runs at precision n-1, one digit below
full precision, which is why the module constructor demands n >= 2.
"""

from __future__ import annotations

import itertools

from . import linalg
from .base_rings import STANDARD_CASES, WittRing
from .errors import DomainError, PreconditionError, ValidationError

X1, X2, Y1, Y2 = 0, 1, 2, 3


def _standard_pairing(p):
    """The standard pairing shape in the basis (X1, X2, Y1, Y2):
    <X1,Y1> = 1, <X2,Y2> = p, all other pairings zero."""
    return [[0, 0, 1, 0], [0, 0, 0, p], [-1, 0, 0, 0], [0, -p, 0, 0]]


class DieudonneModule:
    """Free rank-4 module with semilinear F, V and an alternating pairing."""

    def __init__(self, ring, F_matrix, V_matrix, J):
        if not isinstance(ring, WittRing):
            raise DomainError("Dieudonne modules live over Witt rings")
        if ring.n < 2:
            raise PreconditionError("dual-lattice tests need one spare digit: n >= 2")
        self.ring = ring
        self.rank = 4
        self.F_matrix = [[ring.element(x) for x in row] for row in F_matrix]
        self.V_matrix = [[ring.element(x) for x in row] for row in V_matrix]
        self.J = [[ring.element(x) for x in row] for row in J]

    # -- operator and pairing actions -------------------------------------

    def apply_F(self, vec):
        return linalg.mat_vec(self.F_matrix, [self.ring.frobenius(x) for x in vec])

    def apply_V(self, vec):
        return linalg.mat_vec(self.V_matrix, [self.ring.frobenius_inv(x) for x in vec])

    def pair(self, x, y):
        return linalg.bilinear(self.J, x, y, self.ring.zero())

    def basis_vector(self, i):
        return [self.ring.one() if j == i else self.ring.zero() for j in range(4)]

    def sigma_matrix(self, A):
        return linalg.mat_map(A, self.ring.frobenius)

    def sigma_inv_matrix(self, A):
        return linalg.mat_map(A, self.ring.frobenius_inv)

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Named checks for every structural invariant."""
        ring = self.ring
        p_id = linalg.scalar_mul(ring.p_element(), linalg.identity(ring, 4))
        fv = linalg.mat_mul(self.F_matrix, self.sigma_matrix(self.V_matrix))
        vf = linalg.mat_mul(self.V_matrix, self.sigma_inv_matrix(self.F_matrix))
        alternating = all(
            self.J[i][j] == -self.J[j][i] for i in range(4) for j in range(4)
        ) and all(not self.J[i][i] for i in range(4))
        # elementary-divisor valuations (0, 0, 1, 1): det J = unit p^2 and
        # rank 2 mod p, stated in a form that survives n = 2
        divisors, _, _ = linalg.smith_form_local(ring, [row[:] for row in self.J])
        jbar = linalg.mat_map(self.J, ring.residue)
        ftj = linalg.mat_mul(linalg.transpose(self.F_matrix), self.J)
        jv = self.sigma_matrix(linalg.mat_mul(self.J, self.V_matrix))
        return {
            "fv_is_p": linalg.mat_eq(fv, p_id),
            "vf_is_p": linalg.mat_eq(vf, p_id),
            "alternating": alternating,
            "polarization_degree_p2": divisors == [0, 0, 1, 1]
            and linalg.rank_field(ring.field, jbar) == 2,
            "fv_pairing_compatible": linalg.mat_eq(ftj, jv),
        }

    def require_valid(self, what):
        """self, or a ValidationError naming the failed checks."""
        bad = [k for k, ok in self.validate().items() if not ok]
        if bad:
            raise ValidationError(f"{what} violates invariants: {bad}")
        return self


def make_standard(ring, case):
    """The standard fixtures, in the basis order (X1, X2, Y1, Y2).

    iia:  F X1 = Y1, F Y1 = -p X1 (same on the 2-block), <X1,Y1> = 1,
          <X2,Y2> = p; superspecial, Lagrangian.
    iib:  F X1 = Y1, F Y1 = p X1, <X1,X2> = 1, <Y1,Y2> = p; superspecial.
    ordinary: split etale x multiplicative model.
    lagrangian_generic / mixed: block product of an ordinary elliptic block
          and a supersingular one, carrying the same pairing as iia.
    supersingular_a1: supersingular with a-number 1 (odd p only).
    """
    p = ring.p
    if case == "iia":
        F = [[0, 0, -p, 0], [0, 0, 0, -p], [1, 0, 0, 0], [0, 1, 0, 0]]
        V = [[0, 0, p, 0], [0, 0, 0, p], [-1, 0, 0, 0], [0, -1, 0, 0]]
        J = _standard_pairing(p)
    elif case == "iib":
        F = [[0, 0, p, 0], [0, 0, 0, p], [1, 0, 0, 0], [0, 1, 0, 0]]
        V = F
        J = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, p], [0, 0, -p, 0]]
    elif case == "ordinary":
        F = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, p, 0], [0, 0, 0, p]]
        V = [[p, 0, 0, 0], [0, p, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        J = _standard_pairing(p)
    elif case in ("lagrangian_generic", "mixed"):
        F = [[1, 0, 0, 0], [0, 0, 0, p], [0, 0, p, 0], [0, -1, 0, 0]]
        V = [[p, 0, 0, 0], [0, 0, 0, -p], [0, 0, 1, 0], [0, 1, 0, 0]]
        J = _standard_pairing(p)
    elif case == "supersingular_a1":
        if p == 2:
            raise PreconditionError("the a-number-1 fixture needs odd p")
        F = [[0, 0, 0, -p], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, p, 0]]
        V = [[0, p, 0, 0], [0, 0, p, 0], [0, 0, 0, 1], [-1, 0, 0, 0]]
        J = [[0, 1, 0, 1], [-1, 0, p, 0], [0, -p, 0, p], [-1, 0, -p, 0]]
    else:
        raise ValidationError(f"unknown standard case {case!r}; choose from {STANDARD_CASES}")
    return DieudonneModule(ring, F, V, J).require_valid(f"fixture {case}")


# ---------------------------------------------------------------------------
# invariants


def a_number(module):
    """dim of M / (F, V)M = 4 - rank of the mod-p columns of [F | V]."""
    fbar = linalg.mat_map(module.F_matrix, module.ring.residue)
    vbar = linalg.mat_map(module.V_matrix, module.ring.residue)
    combined = [frow + vrow for frow, vrow in zip(fbar, vbar)]
    return 4 - linalg.rank_field(module.ring.field, combined)


def p_rank(module):
    """Dimension of the stable image of the semilinear reduction F-bar."""
    fld = module.ring.field
    fbar = linalg.mat_map(module.F_matrix, module.ring.residue)
    basis = linalg.identity(fld, 4)
    span = [list(row) for row in zip(*basis)]
    for _ in range(4):
        images = [linalg.mat_vec(fbar, [fld.frobenius(c) for c in v]) for v in span]
        reduced, _ = linalg.rref_field(fld, images)
        span = [row for row in reduced if any(row)]
        if not span:
            return 0
    return len(span)


class DualLattice:
    """Integral description of p * M^t by its basis columns b_i, with
    <b_i / p, e_j> = delta_ij.  Entries are trusted to precision n-1 only."""

    def __init__(self, basis_columns, precision):
        self.basis_columns = basis_columns
        self.precision = precision

    def columns(self):
        return self.basis_columns


def dual_lattice(module):
    """p * M^t inside M, as the columns of p * J^{-T}.

    Computed through the Smith form J = U^{-1} diag(p^v) V^{-1}, so
    p J^{-1} = V diag(p^{1-v}) U stays integral with no division; the
    identity B^T J = p * Id holds exactly at the working precision.  For
    the paramodular degree (divisors 1, 1, p, p) a representative of the
    true dual is pinned only to precision n-1; a principal pairing keeps
    full precision and gives p * M^t = p * M."""
    ring = module.ring
    vals, U, V = linalg.smith_form_local(ring, [row[:] for row in module.J])
    if vals not in ([0, 0, 1, 1], [0, 0, 0, 0]):
        raise PreconditionError("pairing is not of polarization degree 1 or p^2")
    scale = [[ring.from_int(ring.p ** (1 - v)) if i == j else ring.zero()
              for j in range(4)] for i, v in enumerate(vals)]
    # the columns of p J^{-T} are the rows of p J^{-1}
    p_jinv = linalg.mat_mul(V, linalg.mat_mul(scale, U))
    return DualLattice(p_jinv, ring.n - 1 if vals == [0, 0, 1, 1] else ring.n)


def kernel_type(module):
    """The polarization-kernel dichotomy at a-number 2, as a tag:
    "AlphaSquare" iff F(p M^t) and V(p M^t) land in p M, tested at
    precision n-1, else "NonAlphaSquare"; modules with a-number != 2 are
    "NotSuperspecial"."""
    if a_number(module) != 2:
        return "NotSuperspecial"
    dual = dual_lattice(module)
    for col in dual.columns():
        for image in (module.apply_F(col), module.apply_V(col)):
            # precision n-1 >= 1, so residues of the entries are trusted
            if any(module.ring.residue(x) for x in image):
                return "NonAlphaSquare"
    return "AlphaSquare"


# ---------------------------------------------------------------------------
# Lagrangian witness search


class LagrangianWitness:
    """Basis vectors Y1, Y2, X1, X2 in which the pairing has the standard shape."""

    def __init__(self, Y1, Y2, X1, X2):
        self.Y1, self.Y2, self.X1, self.X2 = Y1, Y2, X1, X2

    def __eq__(self, other):
        return isinstance(other, LagrangianWitness) and vars(self) == vars(other)


class LagrangianSearchResult:
    """A search's verdict, its witness if found, and the nodes it visited."""

    def __init__(self, found, witness=None, precision=0, nodes=0, message=""):
        self.found = found
        self.witness = witness
        self.precision = precision
        self.nodes = nodes
        self.message = message

    def __eq__(self, other):
        return isinstance(other, LagrangianSearchResult) and vars(self) == vars(other)


def _in_vm_mod(module, vals, U, vec, k):
    """Membership in VM modulo p^k."""
    ring = module.ring
    coords = linalg.mat_vec(U, vec)
    for v, c in zip(vals, coords):
        if ring.valuation(c) < min(v, k):
            return False
    return True


def _complete_witness(module, g1, g2):
    """Try to complete an isotropic direct-summand pair to a basis with
    the standard pairing shape `_standard_pairing`."""
    ring = module.ring
    # A[j] = (<e_j, g1>, <e_j, g2>)
    A = [[a, b] for a, b in zip(linalg.mat_vec(module.J, g1), linalg.mat_vec(module.J, g2))]
    vals, U, V = linalg.smith_form_local(ring, A)
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
    expect = [[ring.from_int(x) for x in row] for row in _standard_pairing(ring.p)]
    if not linalg.mat_eq(gram, expect):
        return None
    if not ring.is_unit(linalg.det(ring, basis)):
        return None
    return LagrangianWitness(y1, y2, x1, x2)


def _solutions(field, rows, nvars):
    """The x in F_q^nvars with sum_j c_j x_j + c = 0 for every row
    (c_1, ..., c_nvars, c), in lexicographic order of the entries'
    coefficient tuples (the order of FiniteField.elements).

    Row reduction of the reversed columns writes each pivot unknown through
    the free unknowns to its left, so two solutions first differ at a free
    unknown, and running the free unknowns' coefficients through
    itertools.product visits the solutions in lexicographic order."""
    reduced, pivots = linalg.rref_field(
        field, [row[nvars - 1::-1] + [-row[nvars]] for row in rows])
    if nvars in pivots:
        return
    bound = {nvars - 1 - col: row for row, col in zip(reduced, pivots)}
    free = [j for j in range(nvars) if j not in bound]
    m = field.m
    for flat in itertools.product(range(field.p), repeat=m * len(free)):
        x = {f: field.element(flat[m * i:m * i + m]) for i, f in enumerate(free)}
        for j, row in bound.items():
            acc = row[nvars]
            for f in free:
                if row[nvars - 1 - f]:
                    acc = acc - row[nvars - 1 - f] * x[f]
            x[j] = acc
        yield [x[j] for j in range(nvars)]


def lagrangian_witness_search(module, max_nodes=None):
    """Digit-by-digit backtracking search for a rank-2 direct summand
    L <= VM, isotropic at full precision, completable to the standard
    pairing shape.  A found witness is a proof; exhaustion is evidence
    only, since finite precision cannot certify non-liftability.

    The generators g1, g2 carry 1 at two pivot positions and Teichmuller
    digits at the other two, the free slots.  A node at level k + 1 adds
    p^k [delta] at the four free slots and keeps g1, g2 in VM and isotropic
    mod p^{k+1}.  For k >= 1 these conditions are F_q-linear in delta, as
    p^{2k} <delta1, delta2> vanishes mod p^{k+1}, and each node solves one
    system for its children; at k = 0, delta1 runs over the solutions of
    g1's membership equations and delta2 is solved for with delta1 fixed.
    Solutions are visited in lexicographic digit order, so the search meets
    the witness that trying all q^4 digit choices per level meets first.

    `nodes` counts the nodes visited.  With `max_nodes` the search visits
    at most that many, and a search cut short says so in its message."""
    if max_nodes is not None and max_nodes < 0:
        raise ValidationError("max_nodes must be >= 0")
    ring = module.ring
    n = ring.n
    field = ring.field
    # Smith data of V_matrix: x in VM iff (U x)_i = 0 mod p^{v_i}
    vals, U, _ = linalg.smith_form_local(ring, [row[:] for row in module.V_matrix])
    Ubar = linalg.mat_map(U, ring.residue)
    Jbar = linalg.mat_map(module.J, ring.residue)
    JbarT = linalg.transpose(Jbar)
    zero = field.zero()
    nodes = 0
    cut = False

    def digit(x, k):
        # Teichmuller digit k of an x of valuation >= k
        return ring.residue(ring.divide_exact_p(x, k))

    for pivots in itertools.combinations(range(4), 2):
        free = [j for j in range(4) if j not in pivots]

        def membership_rows(g, k):
            # digit k of (U g)_i + sum_j u_ij delta_j = 0, for each v_i > k
            coords = linalg.mat_vec(U, g)
            return [[urow[free[0]], urow[free[1]], digit(c, k)]
                    for v, c, urow in zip(vals, coords, Ubar) if v > k]

        def children(k, g1, g2):
            rows1 = membership_rows(g1, k)
            rows2 = membership_rows(g2, k)
            if k:
                # digit k of <g1, g2>, plus <delta1, g2> + <g1, delta2>
                right = linalg.mat_vec(Jbar, [ring.residue(x) for x in g2])
                left = linalg.mat_vec(JbarT, [ring.residue(x) for x in g1])
                isotropy = [right[free[0]], right[free[1]], left[free[0]], left[free[1]],
                            digit(module.pair(g1, g2), k)]
                system = ([row[:2] + [zero, zero, row[2]] for row in rows1]
                          + [[zero, zero] + row for row in rows2] + [isotropy])
                yield from _solutions(field, system, 4)
                return
            # mod p, g1 = e_pivot0 + delta1 and g2 = e_pivot1 + delta2
            for d1 in _solutions(field, rows1, 2):
                h1 = [ring.residue(x) for x in g1]
                h1[free[0]], h1[free[1]] = d1
                left = linalg.mat_vec(JbarT, h1)
                isotropy = [left[free[0]], left[free[1]], left[pivots[1]]]
                for d2 in _solutions(field, rows2 + [isotropy], 2):
                    yield d1 + d2

        def dfs(level, g1, g2):
            nonlocal nodes, cut
            if level == n:
                if not (_in_vm_mod(module, vals, U, g1, n) and _in_vm_mod(module, vals, U, g2, n)):
                    return None
                if ring.valuation(module.pair(g1, g2)) < n:
                    return None
                return _complete_witness(module, g1, g2)
            pk = ring.from_int(ring.p ** level)
            for delta in children(level, g1, g2):
                if max_nodes is not None and nodes >= max_nodes:
                    cut = True
                    return None
                nodes += 1
                h1, h2 = g1[:], g2[:]
                for s, d in enumerate(delta):
                    if d:
                        vec, pos = (h1, h2)[s // 2], free[s % 2]
                        vec[pos] = vec[pos] + ring.teichmuller(d) * pk
                got = dfs(level + 1, h1, h2)
                if got is not None or cut:
                    return got
            return None

        witness = dfs(0, module.basis_vector(pivots[0]), module.basis_vector(pivots[1]))
        if witness is not None:
            return LagrangianSearchResult(
                True, witness, n, nodes, "witness found (proof of the pairing shape)"
            )
        if cut:
            return LagrangianSearchResult(
                False, None, n, nodes,
                f"node budget of {max_nodes} spent before the search at precision {n} "
                "finished; a search cut short is not evidence",
            )
    return LagrangianSearchResult(
        False, None, n, nodes,
        f"no witness at precision {n}; exhaustion is evidence, not a proof",
    )


# ---------------------------------------------------------------------------
# base change (used by the isomorphism-invariance tests)


def base_change(module, g):
    """The module in the new basis given by an invertible matrix g:
    F -> g^{-1} F sigma(g), V -> g^{-1} V sigma^{-1}(g), J -> g^T J g."""
    ring = module.ring
    ginv = linalg.invert(ring, g)
    F = linalg.mat_mul(ginv, linalg.mat_mul(module.F_matrix, module.sigma_matrix(g)))
    V = linalg.mat_mul(ginv, linalg.mat_mul(module.V_matrix, module.sigma_inv_matrix(g)))
    J = linalg.mat_mul(linalg.transpose(g), linalg.mat_mul(module.J, g))
    return DieudonneModule(ring, F, V, J)
