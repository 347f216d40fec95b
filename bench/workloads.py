"""Seeded workloads for the sll benchmark: input generation, jobs and checks.

Every workload is a list of blocks.  A block is a fixed, stratified mix of
job kinds whose parameters are drawn from a block-local RNG, so a run that
covers whole blocks sees the same size mix on every seed and the seed only
changes the concrete inputs.  The generators use stdlib ``random`` only and
emit plain data (ints, tuples, lists, argv strings); ``sll`` sees nothing
else.  Preconditions hold by construction, so no generator calls ``sll``.

Per workload: ``*_block(seed, index)`` makes one block of jobs,
``*_setup(sll)`` builds the rings and fixtures, ``*_run`` runs one job
(the timed part) and ``*_check`` checks its output outside the timed part,
returning ``(ok, digest_material)``, where the material is a JSON-able
summary of the mathematical outputs or None.
"""

from __future__ import annotations

import itertools
import json
import random

# -- shared helpers -------------------------------------------------------------

# residue field size q -> (p, m)
Q_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def block_rng(seed, workload, block):
    # str seeds hash through sha512, so this is stable across processes
    return random.Random(f"{seed}:{workload}:{block}")


def _rand_coeffs(rng, p, m, n):
    pn = p ** n
    return tuple(rng.randrange(pn) for _ in range(m))


def _rand_unit(rng, p, m, n):
    while True:
        c = _rand_coeffs(rng, p, m, n)
        if any(x % p for x in c):
            return c


def _times_p(c, k, p, n):
    pn = p ** n
    return tuple((x * p ** k) % pn for x in c)


def _add(a, b, p, n):
    pn = p ** n
    return tuple((x + y) % pn for x, y in zip(a, b))


def _monomials(d):
    return [e for e in itertools.product(range(d + 1), repeat=4) if sum(e) == d]


# -- normal-form -------------------------------------------------------------

# (p, m, n, D): D = 2p + 2, except D = 8 on W_2(F_9)
NF_RINGS = ((3, 1, 3, 8), (5, 1, 3, 12), (3, 2, 2, 8), (2, 2, 3, 6))
# lowest degree of the "sparse" random monomials; low degrees cause fill-in
NF_SPARSE_FLOOR = {6: 4, 8: 5, 12: 7}
NF_SPARSE_COUNTS = {6: (4, 8, 12, 16), 8: (4, 9, 14, 20), 12: (4, 6, 8, 10)}
# the dense inputs carry low-degree monomials and form the latency tail
NF_DENSE_LOW = {6: (3, 4, 4), 8: (3, 4, 4), 12: (5, 6)}
NF_DENSE_HIGH = {6: 8, 8: 8, 12: 6}


def nf_series(rng, p, m, n, D, low_degrees, high_count):
    """Plain-data series: (terms {exps: coeffs}, quadratic part {(i, j): coeffs}).

    Constant term in (p), linear terms in (p^2), a quadratic part whose
    Gram matrix is a unit mod p (hyperbolic pairs, or for odd p a diagonal
    of units) plus p * noise, and random monomials of degree 3 .. D-1.
    """
    terms = {(0, 0, 0, 0): _times_p(_rand_coeffs(rng, p, m, n), 1, p, n)}
    for i in range(4):
        e = [0] * 4
        e[i] = 1
        terms[tuple(e)] = _times_p(_rand_coeffs(rng, p, m, n), 2, p, n)
    quad = {(i, j): _times_p(_rand_coeffs(rng, p, m, n), 1, p, n)
            for i in range(4) for j in range(i, 4)}
    if p != 2 and rng.random() < 0.5:
        keys = [(i, i) for i in range(4)]
    else:
        perm = list(range(4))
        rng.shuffle(perm)
        keys = [tuple(sorted(perm[0:2])), tuple(sorted(perm[2:4]))]
    for key in keys:
        quad[key] = _add(quad[key], _rand_unit(rng, p, m, n), p, n)
    for (i, j), c in quad.items():
        e = [0] * 4
        e[i] += 1
        e[j] += 1
        terms[tuple(e)] = c
    floor = NF_SPARSE_FLOOR[D]
    degrees = list(low_degrees) + [rng.randrange(floor, D) for _ in range(high_count)]
    for d in degrees:
        terms[rng.choice(_monomials(d))] = _rand_coeffs(rng, p, m, n)
    return terms, quad


def nf_block(seed, block):
    rng = block_rng(seed, "normal-form", block)
    jobs = []
    for ring_index, (p, m, n, D) in enumerate(NF_RINGS):
        for count in NF_SPARSE_COUNTS[D]:
            terms, quad = nf_series(rng, p, m, n, D, (), count)
            jobs.append(("sparse", ring_index, terms, quad))
        terms, quad = nf_series(rng, p, m, n, D, NF_DENSE_LOW[D], NF_DENSE_HIGH[D])
        jobs.append(("dense", ring_index, terms, quad))
    rng.shuffle(jobs)
    return jobs


def nf_setup(sll):
    """The coefficient and series rings of the normal-form mix."""
    rings = []
    for p, m, n, D in NF_RINGS:
        witt = sll.WittRing(sll.FiniteField(p, m), n)
        rings.append(sll.SeriesRing(witt, 4, D))
    return rings


def nf_run(sll, fixtures, job):
    _, ring_index, terms, _ = job
    f = fixtures[ring_index].from_terms(terms.items())
    return f, sll.normal_form(f)


def nf_check(sll, job, out, want_digest):
    """a' = a mod p^min(3, n), and Q' = Q mod p^2 (the linear shift b lies
    in (p^2), so it moves the quadratic part only by multiples of p^2)."""
    _, ring_index, terms, quad = job
    p, m, n, _ = NF_RINGS[ring_index]
    _, result = out
    a = terms[(0, 0, 0, 0)]
    a_prime = result.a_prime.coeffs
    k = min(3, n)
    ok = all((x - y) % p ** k == 0 for x, y in zip(a, a_prime))
    q_in = {key: tuple(x % p ** 2 for x in c) for key, c in quad.items()}
    q_out = {key: tuple(x % p ** 2 for x in c.coeffs) for key, c in result.q_prime.upper.items()}
    zero = (0,) * m
    for key in set(q_in) | set(q_out):
        if q_in.get(key, zero) != q_out.get(key, zero):
            ok = False
    if not want_digest:
        return ok, None
    material = {
        "ring": ring_index,
        "a_prime": list(a_prime),
        "q_prime": sorted([i, j, list(c.coeffs)] for (i, j), c in result.q_prime.upper.items()),
        "phi": [[[list(e), list(c.coeffs)] for e, c in comp.terms()] for comp in result.phi],
    }
    return ok, material


# -- witness-search ----------------------------------------------------------

WS_FOUND = tuple(
    [(case, q, n) for case in ("iia", "ordinary", "mixed") for q in (2, 3, 4, 5) for n in (2, 3)]
    + [("supersingular_a1", q, n) for q in (3, 5) for n in (2, 3)]
)
WS_IIB_LIGHT = (("iib", 2, 2), ("iib", 2, 3), ("iib", 3, 2), ("iib", 3, 3))
# exhaustive searches: the latency tail; q >= 7 is left out (3 s to 15 s each)
WS_IIB_HEAVY = (("iib", 4, 2), ("iib", 4, 2), ("iib", 5, 2), ("iib", 5, 2))
WS_IIB_TOP = (("iib", 4, 3), ("iib", 5, 3))
# verdict of every fixture before base change; a base change must keep it
WS_EXPECTED = {"iia": True, "ordinary": True, "mixed": True, "supersingular_a1": True, "iib": False}


def _unitriangular(rng, p, m, n, lower, mild):
    one, zero = (1,) + (0,) * (m - 1), (0,) * m
    g = [[one if i == j else zero for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            if (i > j) if lower else (i < j):
                c = _rand_coeffs(rng, p, m, n)
                g[i][j] = _times_p(c, 1, p, n) if mild else c
    return g


def ws_block(seed, block):
    """One job per found case (two at q = 3), the exhaustive iib cases, and
    one of the two heaviest.  On iib and on found cases at q <= 3 the base
    change is 1 mod p, so the search meets the fixture's residue structure
    and its node count is fixed; the q = 3 jobs hold the median and the iib
    jobs the 90th percentile steady.  On found cases at q >= 4 the base
    change is generic and the node count depends on the seed."""
    rng = block_rng(seed, "witness-search", block)
    cases = list(WS_FOUND) + [c for c in WS_FOUND if c[1] == 3]
    cases += list(WS_IIB_LIGHT) + list(WS_IIB_HEAVY)
    cases.append(WS_IIB_TOP[block % 2])
    jobs = []
    for case, q, n in cases:
        p, m = Q_FIELDS[q]
        mild = q <= 3 or not WS_EXPECTED[case]
        # g = L U: unipotent with det 1, applied as two base changes
        jobs.append((case, q, n, _unitriangular(rng, p, m, n, True, mild),
                     _unitriangular(rng, p, m, n, False, mild)))
    rng.shuffle(jobs)
    return jobs


def ws_setup(sll):
    fixtures = {}
    for case, q, n in set(WS_FOUND + WS_IIB_LIGHT + WS_IIB_HEAVY + WS_IIB_TOP):
        p, m = Q_FIELDS[q]
        ring = sll.WittRing(sll.FiniteField(p, m), n)
        fixtures[(case, q, n)] = sll.make_standard(ring, case)
    return fixtures


def ws_run(sll, fixtures, job):
    case, q, n, lower, upper = job
    module = fixtures[(case, q, n)]
    ring = module.ring
    for g in (lower, upper):
        module = sll.dieudonne.base_change(module, [[ring.element(c) for c in row] for row in g])
    return module, sll.lagrangian_witness_search(module)


def ws_check(sll, job, out, want_digest):
    """The verdict is the fixture's; a found witness has the standard
    Gram matrix under DieudonneModule.pair and a unit determinant."""
    case, q, n = job[:3]
    module, result = out
    ok = result.found == WS_EXPECTED[case]
    if ok and result.found:
        ring = module.ring
        w = result.witness
        basis = [w.X1, w.X2, w.Y1, w.Y2]
        gram = [[module.pair(u, v).coeffs for v in basis] for u in basis]
        p = ring.p
        shape = [[0, 0, 1, 0], [0, 0, 0, p], [-1, 0, 0, 0], [0, -p, 0, 0]]
        want = [[ring.from_int(x).coeffs for x in row] for row in shape]
        ok = gram == want and ring.is_unit(sll.linalg.det(ring, basis))
    return ok, ([case, q, n, result.found] if want_digest else None)


# -- cli-batch ---------------------------------------------------------------

CLI_WITT_RINGS = ((2, 1, 2), (2, 1, 3), (3, 1, 3), (5, 1, 3), (2, 2, 3), (3, 2, 2), (5, 2, 3), (2, 3, 2))
CLI_FIXTURES = ("iia", "iib", "ordinary", "mixed", "supersingular_a1")
CLI_SEARCH_FOUND = ("iia", "ordinary", "mixed")
CLI_SMALL_Q = (2, 3, 4, 5)
CLI_LARGE_Q = (7, 8, 9)
CLI_ALL_Q = CLI_SMALL_Q + CLI_LARGE_Q
# small series-reduce inputs: (p, m, n, D) over the normal-form coefficient rings
CLI_SERIES_RINGS = ((3, 1, 3, 8), (3, 2, 2, 8), (2, 2, 3, 6), (2, 1, 3, 6))


def _fixture_args(rng, choices=CLI_FIXTURES):
    case = rng.choice(choices)
    q = rng.choice((3, 5)) if case == "supersingular_a1" else rng.choice(CLI_SMALL_Q)
    return ["--fixture", case, "--q", str(q), "--n", str(rng.choice((2, 3)))]


def _series_doc(rng, p, m, n, D):
    terms, _ = nf_series(rng, p, m, n, D, (), 4)
    return {
        "coeff_ring": {"type": "witt", "p": p, "m": m, "n": n},
        "nvars": 4,
        "degree": D,
        "terms": [{"exps": list(e), "coeff": list(c)} for e, c in terms.items()],
    }


def cli_block(seed, block):
    """A fixed skeleton of 24 invocations; the seed picks operands,
    fixtures and small q.  The fiber tangents at q = 7, 8, 9 form the tail."""
    rng = block_rng(seed, "cli-batch", block)
    jobs = []
    for op in ("add", "mul", "frob", "digits"):
        for _ in range(2):
            p, m, n = rng.choice(CLI_WITT_RINGS)
            rows = 1 if op in ("frob", "digits") else rng.randrange(2, 5)
            doc = {"p": p, "m": m, "n": n,
                   "coeffs": [list(_rand_coeffs(rng, p, m, n)) for _ in range(rows)]}
            jobs.append((["witt", op, json.dumps(doc)], None))
    for _ in range(2):
        jobs.append((["dieudonne", "invariants", *_fixture_args(rng)], None))
    jobs.append((["--seed", str(rng.randrange(1000)), "dieudonne", "validate",
                  *_fixture_args(rng), "--spot-checks", "3"], None))
    jobs.append((["dieudonne", "dual", *_fixture_args(rng)], None))
    case = rng.choice(CLI_SEARCH_FOUND)
    jobs.append((["dieudonne", "lagrangian-search", "--fixture", case,
                  "--q", str(rng.choice((2, 3))), "--n", str(rng.choice((2, 3)))], None))
    for _ in range(2):
        jobs.append((["deform", *_fixture_args(rng)], None))
    jobs.append((["local-model", "chart", "--q", str(rng.choice(CLI_ALL_Q)),
                  "--n", str(rng.choice((2, 3)))], None))
    for _ in range(2):
        p, m, n, D = rng.choice(CLI_SERIES_RINGS)
        jobs.append((["series-reduce", "@series"], _series_doc(rng, p, m, n, D)))
    jobs.append((["local-model", "points", "--q", str(rng.choice(CLI_SMALL_Q))], None))
    jobs.append((["local-model", "points", "--q", str(CLI_LARGE_Q[block % 3])], None))
    jobs.append((["local-model", "tangents", "--q", str(rng.choice(CLI_SMALL_Q))], None))
    for q in (7, 7, (8, 9)[block % 2]):
        jobs.append((["local-model", "tangents", "--q", str(q)], None))
    rng.shuffle(jobs)
    return jobs


def _radical_plane(q):
    p, m = Q_FIELDS[q]
    one, zero = [1] + [0] * (m - 1), [0] * m
    return {"basis": [[one, zero, zero, zero], [zero, zero, zero, one]]}


def cli_check(argv, returncode, stdout, want_digest):
    """Exit code 0 and exactly one JSON document; fiber commands also
    check the point count q^3 + 2q^2 + q + 1 and the singular set."""
    if returncode != 0:
        return False, None
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False, None
    ok = isinstance(doc, dict)
    args = [a for a in argv if not a.startswith("{")]
    if ok and args[:1] == ["local-model"] and args[1] in ("points", "tangents"):
        q = int(args[args.index("--q") + 1])
        ok = doc.get("count") == q ** 3 + 2 * q ** 2 + q + 1 == len(doc.get("points", ()))
        if args[1] == "tangents":
            ok = ok and doc.get("singular") == [_radical_plane(q)]
    if not want_digest or not ok:
        return ok, None
    # the search budget and witness vectors may change with the algorithm
    doc.pop("nodes", None)
    doc.pop("witness", None)
    return ok, doc
