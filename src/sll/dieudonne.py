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
    """Free rank-4 module with semilinear F, V and an alternating pairing."""

    def __init__(self, ring, F_matrix, V_matrix, J):
        if not isinstance(ring, WittRing):
            raise DomainError("Dieudonne modules live over Witt rings")
        if ring.n < 2:
            raise PreconditionError("dual-lattice tests need one spare digit: n >= 2")
        self.ring = ring
        self.F_matrix = [[ring.element(x) for x in row] for row in F_matrix]
        self.V_matrix = [[ring.element(x) for x in row] for row in V_matrix]
        self.J = [[ring.element(x) for x in row] for row in J]

    # -- operator and pairing actions -------------------------------------

    def pair(self, x, y):
        return linalg.bilinear(self.J, x, y, self.ring.zero())

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Named checks for every structural invariant."""
        ring = self.ring
        p_id = [[ring.p_element() if i == j else ring.zero() for j in range(4)] for i in range(4)]
        fv = linalg.mat_mul(self.F_matrix, linalg.mat_map(self.V_matrix, ring.frobenius))
        vf = linalg.mat_mul(self.V_matrix, linalg.mat_map(self.F_matrix, ring.frobenius_inv))
        alternating = all(
            self.J[i][j] == -self.J[j][i] for i in range(4) for j in range(4)
        ) and all(not self.J[i][i] for i in range(4))
        # elementary-divisor valuations (0, 0, 1, 1): det J = unit p^2, and J mod p
        # has rank 2, the number of unit divisors; 1 < n holds from n = 2 on
        divisors, _, _ = linalg.smith_form_local(ring, self.J)
        ftj = linalg.mat_mul(linalg.transpose(self.F_matrix), self.J)
        jv = linalg.mat_map(linalg.mat_mul(self.J, self.V_matrix), ring.frobenius)
        return {
            "fv_is_p": fv == p_id,
            "vf_is_p": vf == p_id,
            "alternating": alternating,
            "polarization_degree_p2": divisors == [0, 0, 1, 1],
            "fv_pairing_compatible": ftj == jv,
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
    combined = [frow + vrow for frow, vrow in zip(module.F_matrix, module.V_matrix)]
    return 4 - linalg.rank_field(module.ring, combined)


def p_rank(module):
    """Dimension of the stable image of F-bar, that of F-bar^4: with A = F mod p,
    F-bar^4 = A sigma(A) sigma^2(A) sigma^3(A) sigma^4, and sigma is bijective."""
    fld = module.ring.field
    power = step = linalg.mat_map(module.F_matrix, module.ring.residue)
    for _ in range(3):
        step = linalg.mat_map(step, fld.frobenius)
        power = linalg.mat_mul(power, step)
    return linalg.rank_field(fld, power)


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
    B = linalg.transpose(dual_lattice(module).columns())
    ring = module.ring
    images = (linalg.mat_mul(module.F_matrix, linalg.mat_map(B, ring.frobenius)),
              linalg.mat_mul(module.V_matrix, linalg.mat_map(B, ring.frobenius_inv)))
    # precision n-1 >= 1, so residues of the entries are trusted
    if any(ring.residue(x) for image in images for row in image for x in row):
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
    """Try to complete an isotropic direct-summand pair to a basis with
    the standard pairing shape `_standard_pairing`."""
    ring = module.ring
    G = linalg.transpose([g1, g2])
    # row j of J G is (<e_j, g1>, <e_j, g2>)
    vals, U, V = linalg.smith_form_local(ring, linalg.mat_mul(module.J, G))
    if vals != [0, 1]:
        return None
    y1, y2 = linalg.transpose(linalg.mat_mul(G, V))
    x1 = list(U[0])
    x2 = list(U[1])
    c = module.pair(x1, x2)
    if c:
        x2 = [a - c * b for a, b in zip(x2, y1)]
    basis = [x1, x2, y1, y2]
    gram = linalg.mat_mul(basis, linalg.mat_mul(module.J, linalg.transpose(basis)))
    expect = [[ring.from_int(x) for x in row] for row in _standard_pairing(ring.p)]
    if gram != expect:
        return None
    if not ring.is_unit(linalg.det(ring, basis)):
        return None
    return LagrangianWitness(y1, y2, x1, x2)


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
    `_complete_witness` completes (g1, l2), and its Gram and determinant
    checks certify the witness.  A module on which a step fails (no such z,
    <g1, g2> a unit, or no completion) fails `validate()` and is refused."""
    ring = module.ring
    n = ring.n
    vals, _, _ = linalg.smith_form_local(ring, module.V_matrix)
    if vals != [0, 0, 1, 1]:
        raise PreconditionError(f"V has elementary divisor valuations {vals}, not [0, 0, 1, 1]")
    columns = linalg.transpose(module.V_matrix)
    images = linalg.transpose(linalg.mat_mul(module.J, module.V_matrix))
    g1 = next((g for g, image in zip(columns, images) if any(map(ring.residue, image))), None)
    if g1 is None:
        return LagrangianSearchResult(
            False, None, n,
            message="no witness at any precision: VM/pM is the radical of the pairing mod p",
        )
    g2 = next(g for g in columns if linalg.rank_field(ring, [g1, g]) == 2)
    # entry j is <g1, e_j>
    pairings = linalg.mat_vec(linalg.transpose(module.J), g1)
    z = next((j for j, x in enumerate(pairings) if ring.is_unit(x)), None)
    c = module.pair(g1, g2)
    if z is None or ring.residue(c):
        raise PreconditionError("mod p the pairing on VM is not alternating or VM/pM not isotropic")
    l2 = list(g2)
    l2[z] = l2[z] - c * ring.invert(pairings[z])
    witness = _complete_witness(module, g1, l2)
    if witness is None:
        raise PreconditionError("the isotropic pair in VM does not complete to the standard shape")
    return LagrangianSearchResult(True, witness, n, message="witness found (proof of the pairing shape)")


# ---------------------------------------------------------------------------
# base change (isomorphism-invariance tests, validate spot checks, the benchmark)


def base_change(module, g):
    """The module in the new basis given by an invertible matrix g:
    F -> g^{-1} F sigma(g), V -> g^{-1} V sigma^{-1}(g), J -> g^T J g,
    all on reduced coefficients (`base_rings.CoeffPacking`)."""
    ring = module.ring
    packing = ring.packing
    mul, sigma = packing.mat_mul, packing.frobenius
    # linalg.invert goes first: it refuses an entry of g from another ring
    ginv, g, F, V, J = map(packing.reduced_matrix, (linalg.invert(ring, g), g, module.F_matrix,
                                                    module.V_matrix, module.J))
    F = mul(ginv, mul(F, sigma(g)))
    V = mul(ginv, mul(V, sigma(g, inverse=True)))
    J = mul(linalg.transpose(g), mul(J, g))
    return DieudonneModule(ring, *map(packing.element_matrix, (F, V, J)))
