import json
import random
import time
from pathlib import Path

import pytest

from sll.cli import main
from sll.jsonio import series_from_json, series_to_json
from sll.base_rings import FiniteField, WittRing
from sll.series import SeriesRing
from sll.singularity import NormalFormResult
from sll import jsonio

MODULE_FILE = Path(__file__).parent / "golden_cli" / "module_iia_q4.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_witt_add_one_plus_one(capsys):
    code, doc = run_cli(
        capsys, "witt", "add", '{"p":2,"m":1,"n":2,"coeffs":[[1],[1]]}'
    )
    assert code == 0
    assert doc["coeffs"] == [2]
    assert doc["digits"] == [0, 1]


def test_witt_mul_and_frobenius(capsys):
    code, doc = run_cli(
        capsys, "witt", "mul", '{"p":3,"m":1,"n":2,"coeffs":[[2],[2]]}'
    )
    assert code == 0 and doc["coeffs"] == [4]
    code, doc = run_cli(
        capsys, "witt", "frob", '{"p":2,"m":2,"n":2,"coeffs":[[0,1]]}'
    )
    assert code == 0
    ring = WittRing(FiniteField(2, 2), 2)
    assert ring.element(tuple(doc["coeffs"])) == ring.frobenius(ring.gen())


def test_witt_digits_accepts_digit_encoding_back(capsys):
    code, doc = run_cli(
        capsys, "witt", "digits", '{"p":2,"m":1,"n":3,"coeffs":[[6]]}'
    )
    assert code == 0
    assert doc["digits"] == [0, 1, 1]
    assert doc["valuation"] == 1
    # round trip through the digit encoding
    code, doc2 = run_cli(
        capsys, "witt", "frob", json.dumps({"p": 2, "m": 1, "n": 3, "digits": [doc["digits"]]})
    )
    assert code == 0 and doc2["coeffs"] == [6]


def test_element_documents_name_a_non_default_modulus(capsys):
    # over x^3 + x^2 + 1 (the default for F_8 is x^3 + x + 1) the same
    # coefficients are another element, with other digits
    given = {"p": 2, "m": 3, "n": 2, "modulus": [1, 0, 1, 1], "coeffs": [[1, 2, 3]]}
    for op in ("frob", "digits"):
        code, doc = run_cli(capsys, "witt", op, json.dumps(given))
        assert code == 0 and doc["modulus"] == [1, 0, 1, 1]
    ring = jsonio.ring_from_json(doc)
    x = ring.element((1, 2, 3))
    assert doc["digits"] == jsonio.elem_to_json(ring, x)["digits"]
    code, doc = run_cli(capsys, "witt", "frob", json.dumps(dict(given, modulus=[1, 1, 0, 1])))
    assert code == 0 and "modulus" not in doc


def test_witt_validation_errors(capsys):
    code, doc = run_cli(capsys, "witt", "add", '{"p":2,"m":1,"n":2,"coeffs":[[1]]}')
    assert code == 2 and "error" in doc
    code, doc = run_cli(capsys, "witt", "add", '{"p":2,"m":1,"n":2}')
    assert code == 2
    code, doc = run_cli(capsys, "witt", "add", "{not json")
    assert code == 2


def test_missing_file_is_io_error(capsys):
    code, doc = run_cli(capsys, "series-reduce", "/nonexistent/path.json")
    assert code == 3


def test_series_reduce_roundtrip(tmp_path, capsys):
    ring = WittRing(FiniteField(2), 3)
    S = SeriesRing(ring, 4, 6)
    x = S.variables()
    f = S.constant(ring.p_element()) + x[0] * x[3] - x[1] * x[2] + x[0] * x[0] * x[0]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(series_to_json(f)))
    code, doc = run_cli(capsys, "series-reduce", str(path))
    assert code == 0
    assert doc["class"] == "OrdinaryDoublePoint"
    nf = doc["normal_form"]
    assert nf["a_prime"]["coeffs"] == [2]
    # certificate re-verified from the emitted phi and unit
    phi = [series_from_json(d) for d in nf["phi"]]
    unit = series_from_json(nf["unit"])
    q_prime = jsonio.quadform_from_json(ring, nf["q_prime"])
    a_prime = ring.element(tuple(nf["a_prime"]["coeffs"]))
    result = NormalFormResult(a_prime, q_prime, phi, unit)
    assert result.certificate_holds(f)


def test_series_reduce_smooth_input(capsys):
    ring = WittRing(FiniteField(2), 2)
    S = SeriesRing(ring, 2, 4)
    x = S.variables()
    f = x[0] + x[0] * x[1]
    code, doc = run_cli(capsys, "series-reduce", json.dumps(series_to_json(f)))
    assert code == 0 and doc["class"] == "Smooth"


def test_dieudonne_invariants_fixture_ordinary(capsys):
    code, doc = run_cli(capsys, "dieudonne", "invariants", "--fixture", "ordinary")
    assert code == 0
    assert doc == {"a_number": 0, "p_rank": 2, "kernel_type": "NotSuperspecial"}


def test_dieudonne_validate_with_spot_checks(capsys):
    code, doc = run_cli(
        capsys, "--seed", "5", "dieudonne", "validate", "--fixture", "iib",
        "--q", "2", "--n", "2", "--spot-checks", "3",
    )
    assert code == 0
    assert doc["valid"] is True
    assert doc["spot_checks"] == {"runs": 3, "invariant_stable": True}


def test_spot_checks_row_reduce_each_draw_once(capsys, monkeypatch):
    # the draws that base_change accepts are those the rank filter over the
    # residue field keeps, and every draw, kept or refused, is row-reduced
    # exactly once: by base_change's inverse
    from sll import dieudonne, linalg
    from sll.base_rings import field_for_q

    from .oracles import independent_rank

    real_change, real_rref = dieudonne.base_change, linalg._rref
    passed, reduced = [], []

    def change(module, g):
        other = real_change(module, g)
        passed.append(g)
        return other

    def rref(packing, work):
        reduced.append([row[:4] for row in work])
        return real_rref(packing, work)

    monkeypatch.setattr(dieudonne, "base_change", change)
    monkeypatch.setattr(linalg, "_rref", rref)
    for q in (2, 4, 9):
        ring = WittRing(field_for_q(q), 2)
        for case in ("iia", "ordinary"):
            for seed in range(10):
                passed.clear()
                reduced.clear()
                code, doc = run_cli(capsys, "--seed", str(seed), "dieudonne", "validate",
                                    "--fixture", case, "--q", str(q), "--n", "2",
                                    "--spot-checks", "2")
                assert code == 0 and doc["spot_checks"] == {"runs": 2, "invariant_stable": True}
                rng = random.Random(seed)
                draws, kept = [], []
                while len(kept) < 2:
                    g = [[ring.random_element(rng) for _ in range(4)] for _ in range(4)]
                    draws.append(g)
                    if independent_rank(ring.field, linalg.mat_map(g, ring.residue)) == 4:
                        kept.append(g)
                assert passed == kept, (q, case, seed)
                for g in draws:
                    assert reduced.count(ring.packing.reduced_matrix(g)) == 1, (q, case, seed)


def test_dieudonne_file_roundtrip(tmp_path, capsys):
    from sll.dieudonne import make_standard

    module = make_standard(WittRing(FiniteField(2), 2), "iia")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(jsonio.module_to_json(module)))
    code, doc = run_cli(capsys, "dieudonne", "invariants", "--file", str(path))
    assert code == 0
    assert doc["kernel_type"] == "NonAlphaSquare"


def test_dieudonne_requires_exactly_one_source(capsys):
    code, doc = run_cli(capsys, "dieudonne", "invariants")
    assert code == 2
    code, doc = run_cli(
        capsys, "dieudonne", "invariants", "--fixture", "iia", "--file", "x.json"
    )
    assert code == 2


def test_dieudonne_lagrangian_search(capsys):
    code, doc = run_cli(
        capsys, "dieudonne", "lagrangian-search", "--fixture", "iia", "--q", "2", "--n", "2"
    )
    assert code == 0 and doc["found"] is True and "witness" in doc
    code, doc = run_cli(
        capsys, "dieudonne", "lagrangian-search", "--fixture", "iib", "--q", "2", "--n", "2"
    )
    assert code == 0 and doc["found"] is False


def test_deform_fixture_iib(capsys):
    code, doc = run_cli(capsys, "deform", "--fixture", "iib", "--q", "2", "--n", "3")
    assert code == 0
    assert doc["relation"] == "2 + t11*t22 - t12*t21"
    assert doc["class"] == "OrdinaryDoublePoint"
    assert doc["a_prime_valuation"] == 1


def test_deform_fixture_lagrangian(capsys):
    code, doc = run_cli(capsys, "deform", "--fixture", "lagrangian_generic", "--q", "3")
    assert code == 0 and doc["class"] == "Smooth"


def test_deform_output_feeds_series_reduce(capsys):
    # emitted series documents are accepted back as input
    code, doc = run_cli(capsys, "deform", "--fixture", "iib", "--q", "3", "--n", "3")
    assert code == 0
    code, doc2 = run_cli(capsys, "series-reduce", json.dumps(doc["relation_series"]))
    assert code == 0
    assert doc2["class"] == "OrdinaryDoublePoint"
    assert doc2["normal_form"]["a_prime"]["coeffs"] == [3]


def test_quadratic_series_are_exempt_from_the_monomial_limit(capsys):
    # the relation at the characteristic limit has D = 2p + 2 = 131044
    code, doc = run_cli(capsys, "deform", "--fixture", "iib", "--q", "65521", "--n", "2")
    assert code == 0 and doc["relation_series"]["degree"] == 131044
    code, doc2 = run_cli(capsys, "series-reduce", json.dumps(doc["relation_series"]))
    assert code == 0 and doc2["class"] == "OrdinaryDoublePoint"
    # a cubic term puts the same document over the limit
    cubic = dict(doc["relation_series"])
    cubic["terms"] = cubic["terms"] + [{"exps": [3, 0, 0, 0], "coeff": [1]}]
    start = time.perf_counter()
    code, doc3 = run_cli(capsys, "series-reduce", json.dumps(cubic))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "monomials" in doc3["error"]["message"]


def test_deform_explicit_frame(capsys):
    code, doc = run_cli(
        capsys, "deform", "--fixture", "iib", "--q", "2", "--n", "2", "--frame", "3,4"
    )
    assert code == 0 and doc["class"] == "OrdinaryDoublePoint"
    code, doc = run_cli(
        capsys, "deform", "--fixture", "iib", "--q", "2", "--n", "2", "--frame", "1,2"
    )
    assert code == 2  # X1, X2 do not span the Hodge filtration


def test_local_model_points_and_tangents(capsys):
    code, doc = run_cli(capsys, "local-model", "points", "--q", "2")
    assert code == 0
    assert doc["count"] == 19
    radical = {"basis": [[[1], [0], [0], [0]], [[0], [0], [0], [1]]]}
    assert radical in doc["points"]
    code, doc = run_cli(capsys, "local-model", "tangents", "--q", "2")
    assert code == 0
    assert doc["singular"] == [radical]
    assert {p["tangent_dimension"] for p in doc["points"]} == {3, 4}


def test_local_model_chart(capsys):
    code, doc = run_cli(capsys, "local-model", "chart", "--q", "3", "--n", "3")
    assert code == 0
    assert doc["equation"] == "3 + t11*t22 - t12*t21"
    assert doc["class"] == "OrdinaryDoublePoint"
    assert doc["a_prime_valuation"] == 1


def test_output_is_deterministic(capsys):
    code1 = main(["local-model", "points", "--q", "3"])
    out1 = capsys.readouterr().out
    code2 = main(["local-model", "points", "--q", "3"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_error_exits_2(capsys):
    for argv in (
        ["local-model", "bogus-op", "--q", "2"],
        ["dieudonne", "invariants", "--fixture", "nosuch"],
        ["dieudonne", "invariants", "--fixture", "iia", "--seed", "1"],
        ["local-model", "points", "--q", "two"],
        [],
        ["dieudonne", "validate", "--fixture", "iib", "--q", "2", "--n", "2", "--spot-checks", "-3"],
        # above the spot-check work limit: refused before any base change
        ["dieudonne", "validate", "--fixture", "iib", "--q", "2", "--n", "2",
         "--spot-checks", "100000000"],
        # 1000 checks at about 12 ms each (9 s when run)
        ["--seed", "3", "dieudonne", "validate", "--fixture", "lagrangian_generic",
         "--q", "121", "--n", "4", "--spot-checks", "1000"],
        # a truncation degree of 0 is given, not absent
        ["series-reduce", '{"coeff_ring":{"p":3,"n":2},"nvars":2,"degree":4,'
         '"terms":[{"exps":[1,1],"coeff":1}]}', "--degree", "0"],
        # options an operation does not read are refused, not ignored
        ["local-model", "points", "--q", "2", "--n", "0"],
        ["dieudonne", "invariants", "--fixture", "iia", "--spot-checks", "5"],
        # a module file names its own ring
        ["dieudonne", "invariants", "--file", str(MODULE_FILE), "--q", "97"],
    ):
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1.0, argv
        doc = json.loads(capsys.readouterr().out)  # exactly one JSON document
        assert code == 2
        assert list(doc) == ["error"] and doc["error"]["kind"] == "ValidationError"


def _zero_module_doc():
    zero = [[[0]] * 4 for _ in range(4)]
    return {"ring": {"p": 2, "m": 1, "n": 2}, "F": zero, "V": zero, "J": zero}


BAD_INPUTS = {
    "witt_coeff_string": ["witt", "add", '{"p":2,"m":1,"n":2,"coeffs":[["a"],[1]]}'],
    "modulus_string": ["witt", "add", '{"p":2,"m":2,"n":2,"modulus":"ab","coeffs":[[1,0],[1,0]]}'],
    "series_coeff_ring_int": ["series-reduce", '{"coeff_ring":5,"nvars":1,"degree":3,"terms":[]}'],
    "module_n_string": ["dieudonne", "invariants", "--file", "@module"],
    "p_float": ["witt", "add", '{"p":2.9,"m":1,"n":2,"coeffs":[[1],[1]]}'],
    "p_bool": ["witt", "add", '{"p":true,"m":1,"n":2,"coeffs":[[1],[1]]}'],
    "m_float": ["witt", "add", '{"p":2,"m":1.7,"n":2,"coeffs":[[1],[1]]}'],
    "n_bool": ["witt", "add", '{"p":2,"m":1,"n":true,"coeffs":[[1],[1]]}'],
    "coeff_float": ["witt", "mul", '{"p":3,"m":1,"n":2,"coeffs":[[1.7],[1]]}'],
    "coeff_bool": ["witt", "mul", '{"p":3,"m":1,"n":2,"coeffs":[[true],[1]]}'],
    "digit_bool": ["witt", "frob", '{"p":2,"m":1,"n":2,"digits":[[true,0]]}'],
    "digits_not_list": ["witt", "frob", '{"p":2,"m":1,"n":2,"digits":[[1],3]}'],
    # the value is always a list of operand rows, never one bare row
    "witt_bare_row": ["witt", "frob", '{"p":2,"m":1,"n":2,"coeffs":[1]}'],
    "series_exponent_float": [
        "series-reduce",
        '{"coeff_ring":{"p":2,"n":2},"nvars":1,"degree":3,"terms":[{"exps":[1.0],"coeff":[1]}]}',
    ],
    "series_vars_ints": [
        "series-reduce",
        '{"coeff_ring":{"p":3,"n":2},"nvars":2,"degree":4,"vars":[1,2],'
        '"terms":[{"exps":[1,1],"coeff":1}]}',
    ],
    "series_vars_string": [
        "series-reduce",
        '{"coeff_ring":{"p":3,"n":2},"nvars":2,"degree":4,"vars":"ab",'
        '"terms":[{"exps":[1,1],"coeff":1}]}',
    ],
    "series_vars_duplicate": [
        "series-reduce",
        '{"coeff_ring":{"p":3,"n":2},"nvars":2,"degree":4,"vars":["a","a"],'
        '"terms":[{"exps":[2,0],"coeff":1},{"exps":[1,1],"coeff":1},{"exps":[0,2],"coeff":1}]}',
    ],
    "series_vars_empty": [
        "series-reduce",
        '{"coeff_ring":{"p":3,"n":2},"nvars":2,"degree":4,"vars":[],'
        '"terms":[{"exps":[1,1],"coeff":1}]}',
    ],
    "digit_list_too_long": ["witt", "frob", '{"p":2,"m":2,"n":2,"digits":[[[1,0,1],[0,0]]]}'],
    "series_coeff_float": [
        "series-reduce",
        '{"coeff_ring":{"p":2,"n":2},"nvars":1,"degree":3,"terms":[{"exps":[1],"coeff":0.5}]}',
    ],
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_malformed_input_is_one_validation_error(name, tmp_path, capsys):
    doc = _zero_module_doc()
    doc["ring"]["n"] = "x"
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if a == "@module" else a for a in BAD_INPUTS[name]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2
    assert set(json.loads(out)) == {"error"}


def test_unforeseen_exception_is_internal_error(capsys, monkeypatch):
    from sll import cli

    def broken(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "_points", broken)
    code = main(["local-model", "points", "--q", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out) == {"error": {"kind": "internal", "message": "boom"}}
    # the traceback goes to stderr, imported only on this path
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.rstrip().endswith("ZeroDivisionError: boom")


@pytest.mark.parametrize("q", [11, 25])
def test_fixtures_beyond_small_primes(q, capsys):
    code, doc = run_cli(capsys, "dieudonne", "invariants", "--fixture", "iia", "--q", str(q))
    assert code == 0
    assert doc == {"a_number": 2, "p_rank": 0, "kernel_type": "NonAlphaSquare"}


@pytest.mark.parametrize("argv", [
    ["dieudonne", "invariants", "--fixture", "iia", "--q", "6"],
    ["local-model", "points", "--q", "12"],
    ["local-model", "points", "--q", "11"],
    ["local-model", "chart", "--q", "0"],
    # characteristic above MAX_CHARACTERISTIC: rejected before any trial division
    ["witt", "add", '{"p":100000000000031,"m":1,"n":2,"coeffs":[[1],[1]]}'],
    ["local-model", "chart", "--q", "100000000000031"],
    ["local-model", "chart", "--q", str(65537 * 65539)],
    # extension degree above MAX_DEGREE, ring order q^n above 2^256
    ["witt", "add", '{"p":2,"m":40,"n":2,"coeffs":[[1],[1]]}'],
    ["witt", "digits", '{"p":3,"m":2,"n":1024,"coeffs":[[1,0]]}'],
    # series variables above MAX_NVARS
    ["series-reduce", '{"coeff_ring":{"p":2,"m":1,"n":2},"nvars":3000,"degree":3,"terms":[]}'],
    # x1*x2 + x1^3 + x2^3 at D = 80: 3240 monomials, above MAX_SERIES_MONOMIALS
    ["series-reduce", '{"coeff_ring":{"p":3,"m":1,"n":3},"nvars":2,"degree":80,"terms":['
     '{"exps":[1,1],"coeff":1},{"exps":[3,0],"coeff":1},{"exps":[0,3],"coeff":1}]}'],
])
def test_bad_field_sizes_exit_2(argv, capsys):
    start = time.perf_counter()
    code, doc = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "error" in doc


def test_large_characteristic_cubic_field_is_fast(capsys):
    # the modulus scan skips the p^2 candidates with constant term 0
    start = time.perf_counter()
    code, doc = run_cli(
        capsys, "witt", "add", '{"p":65521,"m":3,"n":2,"coeffs":[[1,0,0],[1,0,0]]}'
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0 and doc["coeffs"] == [2, 0, 0]


@pytest.mark.parametrize("argv", [
    ["dieudonne", "invariants"],
    ["dieudonne", "dual"],
    ["dieudonne", "lagrangian-search"],
    ["deform"],
])
def test_invalid_module_file_is_rejected(argv, tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(_zero_module_doc()))
    code, doc = run_cli(capsys, *argv, "--file", str(path))
    assert code == 2
    assert "fv_is_p" in doc["error"]["message"]


def test_validate_reports_an_invalid_module_file(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(_zero_module_doc()))
    code, doc = run_cli(capsys, "dieudonne", "validate", "--file", str(path))
    assert code == 0
    assert doc["valid"] is False and doc["checks"]["fv_is_p"] is False


@pytest.mark.parametrize("argv", [
    ["dieudonne", "validate"],
    ["dieudonne", "invariants"],
    ["dieudonne", "dual"],
    ["dieudonne", "lagrangian-search"],
    ["deform"],
])
def test_module_file_needs_n_at_least_2(argv, capsys):
    from sll.dieudonne import make_standard

    doc = jsonio.module_to_json(make_standard(WittRing(FiniteField(2), 2), "iib"))
    doc["ring"]["n"] = 1
    code, out = run_cli(capsys, *argv, "--file", json.dumps(doc))
    assert code == 2
    assert out["error"]["kind"] == "PreconditionError" and "n >= 2" in out["error"]["message"]
