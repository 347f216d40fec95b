"""Self-tests of the benchmark harness (not part of the sll test suite).

    python3 -m pytest bench/test_bench.py -q

The traced-run test runs each workload's traced run twice, about a
minute and a half in total.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# metrics that count work and so must repeat exactly on one seed
EXACT_UNITS = ("count", "bytes")
EXACT_RATIOS = ("series.mul.useful_frac", "local_model.enumerate.kept_frac")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counts_repeat(name):
    args = ["--workload", name, "--seed", "2", "--seconds", "1", "--trace", "1"]
    first, second = _result(_bench(*args)), _result(_bench(*args))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m[0] for m in run.PER_LAYER}
    exact = {k for k, v in first["metrics"].items()
             if v["unit"] in EXACT_UNITS or k in EXACT_RATIOS}
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_blocks_depend_only_on_seed_and_index():
    for name, workload in run.WORKLOADS.items():
        assert repr(workload.block(5, 3)) == repr(workload.block(5, 3)), name
        assert repr(workload.block(5, 3)) != repr(workload.block(6, 3)), name


def test_normal_form_inputs_meet_preconditions():
    sys.path.insert(0, str(ROOT / "src"))
    import sll

    rings = workloads.nf_setup(sll)
    for block in range(3):
        for _, ring_index, terms, _ in workloads.nf_block(9, block):
            p = workloads.NF_RINGS[ring_index][0]
            assert all(x % p == 0 for x in terms[(0, 0, 0, 0)])
            for i in range(4):
                e = tuple(1 if j == i else 0 for j in range(4))
                assert all(x % p ** 2 == 0 for x in terms[e])
            f = rings[ring_index].from_terms(terms.items())
            assert sll.is_nondegenerate(sll.QuadraticForm.from_series(f))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "normal-form", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
