#!/usr/bin/env python3
"""Benchmark of the sll engine on three seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload normal-form --seed 1 --seconds 20 --trace 0

Workloads (see design.json for the size mixes and the load model):

* ``normal-form``: certified normal forms of generated 4-variable series.
* ``witness-search``: Lagrangian witness searches on base-changed
  Dieudonne module fixtures.
* ``cli-batch``: whole ``sll`` command-line invocations, one child process
  per job.

Every workload is a closed loop with one client: jobs run one after
another, and cli-batch runs one child at a time.  A run covers whole blocks
of jobs until ``--seconds`` have passed and at least 100 jobs have run.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` runs the first blocks of the workload twice, untraced and
then traced, reports the per-layer metrics, and writes the spans to
``bench/out/``.  Every job's output is checked; on the default seed a
digest of the outputs is compared with ``golden.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads as wl
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 1
MIN_JOBS = 100
SETUP_REPS = 7
CHILD_TIMEOUT_S = 120


class Workload:
    """How to make, run and check one workload's jobs."""

    def __init__(self, name, block, trace_blocks, setup=None, run=None, check=None):
        self.name = name
        self.block = block
        # the traced run and the golden digest cover these first blocks
        self.trace_blocks = trace_blocks
        # in-process workloads; cli-batch has none and runs argv lists instead
        self.setup = setup
        self.run = run
        self.check = check

    @property
    def in_process(self):
        return self.run is not None


WORKLOADS = {
    "normal-form": Workload(
        "normal-form", wl.nf_block, 5, wl.nf_setup, wl.nf_run, wl.nf_check),
    "witness-search": Workload(
        "witness-search", wl.ws_block, 1, wl.ws_setup, wl.ws_run, wl.ws_check),
    "cli-batch": Workload("cli-batch", wl.cli_block, 1),
}

# per-layer metrics: (name, unit, better); ".calls" and ".self_s" read the
# tracer's per-name totals, the rest are derived in `layer_metrics`
PER_LAYER = (
    ("base_rings.witt_mul.calls", "count", "lower"),
    ("base_rings.witt_mul.self_s", "s", "lower"),
    ("base_rings.witt_add.calls", "count", "lower"),
    ("base_rings.teichmuller.calls", "count", "lower"),
    ("base_rings.teichmuller.self_s", "s", "lower"),
    ("base_rings.from_digits.calls", "count", "lower"),
    ("base_rings.from_digits.self_s", "s", "lower"),
    ("base_rings.digits.calls", "count", "lower"),
    ("base_rings.digits.self_s", "s", "lower"),
    ("base_rings.witt_invert.calls", "count", "lower"),
    ("base_rings.witt_invert.self_s", "s", "lower"),
    ("base_rings.ff_mul.calls", "count", "lower"),
    ("base_rings.ring_init.calls", "count", "lower"),
    ("base_rings.ring_init.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.pairs", "count", "lower"),
    ("series.mul.useful_frac", "fraction", "higher"),
    ("series.mul.terms_out", "count", "lower"),
    ("series.substitute.calls", "count", "lower"),
    ("series.substitute.self_s", "s", "lower"),
    ("series.add.calls", "count", "lower"),
    ("series.add.self_s", "s", "lower"),
    ("singularity.kill_linear_term.self_s", "s", "lower"),
    ("singularity.strip_higher_terms.self_s", "s", "lower"),
    ("singularity.certificate.self_s", "s", "lower"),
    ("singularity.classify.calls", "count", "lower"),
    ("singularity.classify.self_s", "s", "lower"),
    ("quadforms.is_nondegenerate.calls", "count", "lower"),
    ("quadforms.is_nondegenerate.self_s", "s", "lower"),
    ("quadforms.from_series.calls", "count", "lower"),
    ("linalg.smith_form_local.calls", "count", "lower"),
    ("linalg.smith_form_local.self_s", "s", "lower"),
    ("linalg.invert.calls", "count", "lower"),
    ("linalg.invert.self_s", "s", "lower"),
    ("linalg.rank_field.calls", "count", "lower"),
    ("linalg.rank_field.self_s", "s", "lower"),
    ("linalg.rref_field.calls", "count", "lower"),
    ("linalg.mat_vec.calls", "count", "lower"),
    ("linalg.mat_vec.self_s", "s", "lower"),
    ("linalg.mat_mul.self_s", "s", "lower"),
    ("linalg.det.calls", "count", "lower"),
    ("dieudonne.search.calls", "count", "lower"),
    ("dieudonne.search.self_s", "s", "lower"),
    ("dieudonne.search.nodes", "count", "lower"),
    ("dieudonne.search.nodes_per_s", "1/s", "higher"),
    ("dieudonne.search.found", "count", "higher"),
    ("dieudonne.pair.calls", "count", "lower"),
    ("dieudonne.pair.self_s", "s", "lower"),
    ("dieudonne.base_change.self_s", "s", "lower"),
    ("dieudonne.invariants.self_s", "s", "lower"),
    ("local_model.enumerate.calls", "count", "lower"),
    ("local_model.enumerate.self_s", "s", "lower"),
    ("local_model.points", "count", "lower"),
    ("local_model.enumerate.kept_frac", "fraction", "higher"),
    ("local_model.tangent_dimension.calls", "count", "lower"),
    ("local_model.tangent_dimension.self_s", "s", "lower"),
    ("local_model.pairing_value.calls", "count", "lower"),
    ("local_model.chart_equation.self_s", "s", "lower"),
    ("deformation.equation.calls", "count", "lower"),
    ("deformation.equation.self_s", "s", "lower"),
    ("jsonio.encode.self_s", "s", "lower"),
    ("jsonio.decode.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.process_overhead_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.dump.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "pass_rate": "fraction",
    "peak_rss_mb": "MB",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, child, overhead_frac):
    """Every PER_LAYER metric from the tracer and the cli children's totals."""
    calls, self_s, total_s, counts = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    derived = {
        "series.mul.pairs": counts["series.mul.pairs"],
        "series.mul.useful_frac": _ratio(counts["series.mul.useful_pairs"], counts["series.mul.pairs"]),
        "series.mul.terms_out": counts["series.mul.terms_out"],
        "dieudonne.search.nodes": counts["dieudonne.search.nodes"],
        "dieudonne.search.nodes_per_s": _ratio(counts["dieudonne.search.nodes"],
                                               total_s["dieudonne.search"]),
        "dieudonne.search.found": counts["dieudonne.search.found"],
        "local_model.points": counts["local_model.points"],
        "local_model.enumerate.kept_frac": _ratio(counts["local_model.points"],
                                                  counts["local_model.enumerate.pairings"]),
        "cli.import_s": child["import_s"],
        "cli.process_overhead_s": child["process_overhead_s"],
        "cli.stdout_bytes": child["stdout_bytes"],
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]]
        else:
            value = self_s[name[:-len(".self_s")]]
        out[name] = {"value": value, "unit": unit}
    return out


# -- job execution ----------------------------------------------------------


class Runner:
    """Runs jobs of one workload and keeps latencies, failures and the digest."""

    def __init__(self, workload, sll, tracer=None):
        self.workload = workload
        self.sll = sll
        self.tracer = tracer
        self.fixtures = None
        self.latencies = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.child = {"import_s": 0.0, "process_overhead_s": 0.0, "stdout_bytes": 0}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env.pop("SLL_PRECISION", None)
        self.tmp = None

    def set_up(self):
        if self.workload.in_process:
            self.fixtures = self.workload.setup(self.sll)

    def run_block(self, jobs, want_digest):
        for job in jobs:
            if self.tracer is not None:
                self.tracer.job = len(self.latencies)
            if self.workload.in_process:
                latency, ok, material = self._run_inproc(job, want_digest)
            else:
                latency, ok, material = self._run_cli(job, want_digest)
            self.latencies.append(latency)
            if not ok:
                self.failed += 1
                print(f"job failed: {self.workload.name} #{len(self.latencies) - 1}: {job[0]}",
                      file=sys.stderr)
            if want_digest:
                self.digest.update(json.dumps(material, sort_keys=True).encode())

    def _run_inproc(self, job, want_digest):
        t0 = time.perf_counter()
        try:
            out = self.workload.run(self.sll, self.fixtures, job)
        except Exception:  # a job that raises counts as failed; keep running
            traceback.print_exc()
            return time.perf_counter() - t0, False, None
        latency = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.active = False
        try:
            ok, material = self.workload.check(self.sll, job, out, want_digest)
        finally:
            if self.tracer is not None:
                self.tracer.active = True
        return latency, ok, material

    def _run_cli(self, job, want_digest):
        argv, doc = job
        if doc is not None:
            if self.tmp is None:
                OUT.mkdir(exist_ok=True)
                self.tmp = tempfile.TemporaryDirectory(dir=OUT)
            path = Path(self.tmp.name) / f"series-{len(self.latencies)}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = [str(path) if a == "@series" else a for a in argv]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "sll.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, False, None
        latency = time.perf_counter() - t0
        ok, material = wl.cli_check(argv, proc.returncode, proc.stdout, want_digest)
        if self.tracer is not None:
            try:
                state = json.loads(proc.stderr.decode().strip().splitlines()[-1])
            except (ValueError, IndexError):
                print(proc.stderr.decode(), file=sys.stderr)
                return latency, False, None
            self.tracer.merge(state, len(self.latencies))
            self.child["import_s"] += state["import_s"]
            self.child["process_overhead_s"] += latency - state["in_child_s"]
            self.child["stdout_bytes"] += len(proc.stdout)
        return latency, ok, material

    def close(self):
        if self.tmp is not None:
            self.tmp.cleanup()


def measure_setup(workload):
    """Median wall time of fresh processes that only do the set-up."""
    if workload.in_process:
        cmd = [sys.executable, str(BENCH / "setup_child.py"), workload.name]
    else:
        cmd = [sys.executable, "-c", "import sll.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        # with captured output, waiting is on the pipes, not on a polling loop
        subprocess.run(cmd, check=True, capture_output=True, env=env, cwd=ROOT,
                       timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb(workload):
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def digest_ok(workload, seed, runner):
    got = runner.digest.hexdigest()
    print(f"digest {workload.name} seed {seed}: {got}", file=sys.stderr)
    if seed != DEFAULT_SEED:
        return True
    want = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload.name)
    if got != want:
        print(f"golden digest mismatch for {workload.name}: want {want}", file=sys.stderr)
        return False
    return True


def run_untraced(workload, sll, seed, seconds):
    setup_s = measure_setup(workload)
    runner = Runner(workload, sll)
    runner.set_up()
    start = time.perf_counter()
    block = 0
    try:
        while (block < workload.trace_blocks or len(runner.latencies) < MIN_JOBS
               or time.perf_counter() - start < seconds):
            runner.run_block(workload.block(seed, block), block < workload.trace_blocks)
            block += 1
    finally:
        runner.close()
    lat = runner.latencies
    attempted = len(lat)
    passed = attempted - runner.failed
    metrics = {
        "jobs_per_s": passed / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1000.0,
        "job_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000.0,
        "setup_s": setup_s,
        "pass_rate": passed / attempted,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    return {
        "correct": runner.failed == 0 and digest_ok(workload, seed, runner),
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def run_traced(workload, sll, seed):
    blocks = [workload.block(seed, b) for b in range(workload.trace_blocks)]
    plain = Runner(workload, sll)
    plain.set_up()
    try:
        for jobs in blocks:
            plain.run_block(jobs, False)
    finally:
        plain.close()
    tracer = Tracer()
    if workload.in_process:
        tracer.install(sll)
    traced = Runner(workload, sll, tracer)
    traced.set_up()
    try:
        for jobs in blocks:
            traced.run_block(jobs, True)
    finally:
        traced.close()
    overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
    OUT.mkdir(exist_ok=True)
    tracer.dump_spans(OUT / f"{workload.name}-seed{seed}.spans.json")
    return {
        "correct": plain.failed == 0 and traced.failed == 0 and digest_ok(workload, seed, traced),
        "attempted": len(traced.latencies),
        "failed": traced.failed,
        "metrics": layer_metrics(tracer, traced.child, overhead),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sll" / "__init__.py").is_file():
        print(f"sll sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sll

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(workload, sll, args.seed)
    else:
        result = run_untraced(workload, sll, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
