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
  * the p-rank is the stable rank of F mod p (etale summands contribute
    bijective F-bar, multiplicative and local-local summands nilpotent
    F-bar), taken over W_n(F_q), as reduction mod p commutes with sigma
    and with products; validated against the standard fixtures.

The dual lattice is represented integrally as p*M^t to avoid fractional
entries; every containment test runs at precision n-1, one digit below
full precision, which is why the module constructor demands n >= 2.
The Lagrangian witness question is decided in closed form from the Hodge
point VM/pM and the radical of the pairing mod p.
"""

from __future__ import annotations

from . import linalg
from .base_rings import STANDARD_CASES, WittRing
from .errors import DomainError, PreconditionError, ValidationError


def _standard_pairing(p):
    """The standard pairing shape in the basis (X1, X2, Y1, Y2):
    <X1,Y1> = 1, <X2,Y2> = p, all other pairings zero."""
    return [[0, 0, 1, 0], [0, 0, 0, p], [-1, 0, 0, 0], [0, -p, 0, 0]]


class DieudonneModule:
    """Free rank-4 module with semilinear F, V and an alternating pairing,
    stored as rows of slot ints (`base_rings.CoeffPacking`); `F_matrix`,
    `V_matrix` and `J` are read-only views in ring elements, built on first read."""

    def __init__(self, ring, F_matrix, V_matrix, J):
        if not isinstance(ring, WittRing):
            raise DomainError("Dieudonne modules live over Witt rings")
        if ring.n < 2:
            raise PreconditionError("dual-lattice tests need one spare digit: n >= 2")
        views = [[[ring.element(x) for x in row] for row in A] for A in (F_matrix, V_matrix, J)]
        self._store(ring, *map(ring.packing.reduced_matrix, views), dict(zip(("_F", "_V", "_J"), views)))

    def _store(self, ring, F, V, J, views):
        """Set the attributes, here only, from rows of slot ints; returns self."""
        self.ring, self._views, self._F, self._V, self._J = ring, views, F, V, J
        return self

    def _view(self, rows):
        view = self._views.get(rows)
        if view is None:
            view = self._views[rows] = self.ring.packing.element_matrix(getattr(self, rows))
        return view

    F_matrix, V_matrix, J = (property(lambda self, rows=rows: self._view(rows))
                             for rows in ("_F", "_V", "_J"))

    # -- operator and pairing actions -------------------------------------

    def pair(self, x, y):
        return linalg.bilinear(self.J, x, y, self.ring.zero())

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Named checks for every structural invariant."""
        packing = self.ring.packing
        mul, sigma, fold = packing.mat_mul, packing.frobenius, packing.fold
        F, V, J = self._F, self._V, self._J
        p_id = [[self.ring.p if i == j else 0 for j in range(4)] for i in range(4)]
        # elementary-divisor valuations (0, 0, 1, 1): det J = unit p^2, and J mod p
        # has rank 2, the number of unit divisors; 1 < n holds from n = 2 on
        divisors, _, _ = linalg._smith(packing, J)
        return {
            "fv_is_p": mul(F, sigma(V)) == p_id,
            "vf_is_p": mul(V, sigma(F, inverse=True)) == p_id,
            "alternating": all(fold(J[i][j] + J[j][i]) == 0 for i in range(4) for j in range(4))
            and not any(J[i][i] for i in range(4)),
            "polarization_degree_p2": divisors == [0, 0, 1, 1],
            "fv_pairing_compatible": mul(linalg.transpose(F), J) == sigma(mul(J, V)),
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
    return 4 - len(linalg._rref(module.ring.packing, [f + v for f, v in zip(module._F, module._V)]))


def p_rank(module):
    """Dimension of the stable image of F-bar, that of F-bar^4: the rank mod p of
    F sigma(F) sigma^2(F) sigma^3(F) (sigma^4 is bijective), over W_n(F_q)."""
    packing = module.ring.packing
    power = step = module._F
    for _ in range(3):
        step = packing.frobenius(step)
        power = packing.mat_mul(power, step)
    return len(linalg._rref(packing, power))


class DualLattice:
    """Integral description of p * M^t by its basis columns b_i, with
    <b_i / p, e_j> = delta_ij.  Entries are trusted to precision n-1 only."""

    def __init__(self, basis_columns, precision):
        self.basis_columns = basis_columns
        self.precision = precision


def dual_lattice(module):
    """p * M^t inside M, as the columns of p * J^{-T}.

    Computed through the Smith form J = U^{-1} diag(p^v) V^{-1}, so
    p J^{-1} = V diag(p^{1-v}) U stays integral with no division; the
    identity B^T J = p * Id holds exactly at the working precision.  For
    the paramodular degree (divisors 1, 1, p, p) a representative of the
    true dual is pinned only to precision n-1; a principal pairing keeps
    full precision and gives p * M^t = p * M."""
    ring = module.ring
    vals, U, V = linalg.smith_form_local(ring, module.J)
    if vals not in ([0, 0, 1, 1], [0, 0, 0, 0]):
        raise PreconditionError("pairing is not of polarization degree 1 or p^2")
    # diag(p^{1-v}) U is U with row i times p^{1-v_i}; p J^{-T} has p J^{-1}'s rows as columns
    scaled = [[ring.from_int(ring.p ** (1 - v)) * x for x in row] for v, row in zip(vals, U)]
    p_jinv = linalg.mat_mul(V, scaled)
    return DualLattice(p_jinv, ring.n - 1 if vals == [0, 0, 1, 1] else ring.n)


def kernel_type(module):
    """The polarization-kernel dichotomy at a-number 2, as a tag:
    "AlphaSquare" iff F(p M^t) and V(p M^t) land in p M, tested at
    precision n-1, else "NonAlphaSquare"; modules with a-number != 2 are
    "NotSuperspecial"."""
    if a_number(module) != 2:
        return "NotSuperspecial"
    # B has the basis vectors of p M^t as columns; F(B) = F sigma(B), V(B) = V sigma^-1(B)
    B = linalg.transpose(dual_lattice(module).basis_columns)
    ring = module.ring
    images = (linalg.mat_mul(module.F_matrix, linalg.mat_map(B, ring.frobenius)),
              linalg.mat_mul(module.V_matrix, linalg.mat_map(B, ring.frobenius_inv)))
    # precision n-1 >= 1 trusts the first digit: an entry is not in pW iff it is a unit
    if any(ring.is_unit(x) for image in images for row in image for x in row):
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
    """A verdict, its witness if found, and `nodes`, which the closed form
    leaves at 0 and the benchmark reads."""

    def __init__(self, found, witness=None, precision=0, nodes=0, message=""):
        self.found = found
        self.witness = witness
        self.precision = precision
        self.nodes = nodes
        self.message = message


def _complete_witness(module, g1, g2):
    """Complete an isotropic direct-summand pair, two vectors of slot ints,
    to a basis with the standard pairing shape `_standard_pairing`, certified
    by its Gram matrix and full rank mod p: only the witness is built as ring
    elements."""
    packing = module.ring.packing
    mul, J, pair = packing.mat_mul, module._J, [g1, g2]
    # row j of J G, G = pair^T, is (<e_j, g1>, <e_j, g2>)
    vals, U, VT = linalg._smith(packing, mul(J, linalg.transpose(pair)))
    if vals != [0, 1]:
        return None
    # the columns of G V are the rows of V^T G^T
    y1, y2 = mul(VT, pair)
    x1, x2 = U[:2]
    [[c]] = mul(mul([x1], J), [[v] for v in x2])
    if c:
        x2 = packing.submul(x2, c, y1)
    basis = [x1, x2, y1, y2]
    expect = [[x % packing.pn for x in row] for row in _standard_pairing(packing.p)]
    if mul(basis, mul(J, linalg.transpose(basis))) != expect or len(linalg._rref(packing, basis[:])) != 4:
        return None
    return LagrangianWitness(*packing.element_matrix([y1, y2, x1, x2]))


def lagrangian_witness_search(module):
    """A rank-2 direct summand L <= VM, isotropic at full precision and
    completable to the standard pairing shape, or a proof that none exists
    at any precision: the verdict is read off the Hodge point VM/pM.

    On a valid module V has elementary divisors (1, 1, p, p): pM = VFM
    lies in VM, and FV = p with v(det F) = v(det V) (F^T J = sigma(J V))
    gives v(det V) = 2, so VM/pM is a plane in M/pM.  Other Smith divisors
    of V are refused.

    If J V = 0 mod p, VM/pM is R, the radical of the pairing mod p: every
    y in VM has <x, y> in pW for all x, while the standard shape needs
    <X1, Y1> = 1.  Otherwise g1, the first column of V with J g1 nonzero
    mod p, has <g1, e_z> a unit for some first basis index z, and g2 is the
    first column of V independent of g1 mod p.  Then
    l2 = g2 - <g1, g2> <g1, e_z>^{-1} e_z has <g1, l2> = 0 exactly; VM/pM
    is isotropic mod p, so the correction lies in pM and l2 in VM.
    `_complete_witness` completes (g1, l2), and its Gram check and full
    rank mod p certify the witness.  A module on which a step fails (no such z,
    <g1, g2> a unit, or no completion) fails `validate()` and is refused."""
    packing, n = module.ring.packing, module.ring.n
    V, J, is_unit = module._V, module._J, packing.is_unit
    vals, _, _ = linalg._smith(packing, V)
    if vals != [0, 0, 1, 1]:
        raise PreconditionError(f"V has elementary divisor valuations {vals}, not [0, 0, 1, 1]")
    columns = linalg.transpose(V)
    images = linalg.transpose(packing.mat_mul(J, V))
    g1 = next((g for g, image in zip(columns, images) if any(map(is_unit, image))), None)
    if g1 is None:
        return LagrangianSearchResult(
            False, None, n,
            message="no witness at any precision: VM/pM is the radical of the pairing mod p",
        )
    g2 = next(g for g in columns if len(linalg._rref(packing, [g1, g])) == 2)
    # entry j is <g1, e_j>, and <g1, g2> = sum_j <g1, e_j> g2_j
    [pairings] = packing.mat_mul([g1], J)
    z = next((j for j, x in enumerate(pairings) if is_unit(x)), None)
    [[c]] = packing.mat_mul([pairings], [[v] for v in g2])
    if z is None or is_unit(c):
        raise PreconditionError("mod p the pairing on VM is not alternating or VM/pM not isotropic")
    l2 = list(g2)
    [l2[z]] = packing.submul([l2[z]], c, [packing.inverse(pairings[z])])
    witness = _complete_witness(module, g1, l2)
    if witness is None:
        raise PreconditionError("the isotropic pair in VM does not complete to the standard shape")
    return LagrangianSearchResult(True, witness, n, message="witness found (proof of the pairing shape)")


# ---------------------------------------------------------------------------
# base change (isomorphism-invariance tests, validate spot checks, the benchmark)


def base_change(module, g):
    """The module in the new basis given by an invertible matrix g:
    F -> g^{-1} F sigma(g), V -> g^{-1} V sigma^{-1}(g), J -> g^T J g,
    on the stored rows of slot ints (`base_rings.CoeffPacking`); no ring
    element is built."""
    # g from another ring, not square or not invertible mod p is refused
    packing = linalg._packing(module.ring, g)
    mul, sigma = packing.mat_mul, packing.frobenius
    g = packing.reduced_matrix(g)
    ginv = linalg._invert(packing, g)
    return DieudonneModule.__new__(DieudonneModule)._store(
        module.ring, mul(ginv, mul(module._F, sigma(g))), mul(ginv, mul(module._V, sigma(g, inverse=True))),
        mul(linalg.transpose(g), mul(module._J, g)), {})
