"""Benchmark-side tracing of the sll layers.

`Tracer.install()` wraps public functions and methods of every sll module
and rebinds each wrapped function wherever an sll module holds it, so a
``from .singularity import classify_local_ring`` elsewhere is covered too.
Nothing inside ``src/sll`` changes.

Three wrapper kinds:

* SPAN: a recorded span (name, start, end, parent span, job id) plus
  per-name call count, self time and total time.  Spans stay in memory
  until `dump_spans` writes them out.
* AGG: hot calls, timed the same way and counted in the per-name totals,
  but not stored as span objects (millions of them would not fit).
* COUNT: the hottest leaves (Witt addition, F_q multiplication): counted
  only, so their time lands in the caller's self time.

Self time is a call's duration minus the durations of the wrapped calls
directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict

SPAN, AGG, COUNT = "span", "agg", "count"

# (metric prefix, module, attribute path, kind); several attributes may share a prefix
TARGETS = (
    ("base_rings.witt_mul", "base_rings", "WittElement.__mul__", AGG),
    ("base_rings.witt_add", "base_rings", "WittElement.__add__", COUNT),
    ("base_rings.ff_mul", "base_rings", "FFElement.__mul__", COUNT),
    ("base_rings.teichmuller", "base_rings", "WittRing.teichmuller", AGG),
    ("base_rings.from_digits", "base_rings", "WittRing.from_digits", AGG),
    ("base_rings.digits", "base_rings", "WittRing.digits", AGG),
    ("base_rings.witt_invert", "base_rings", "WittRing.invert", AGG),
    ("base_rings.ring_init", "base_rings", "WittRing.__init__", SPAN),
    ("base_rings.ring_init", "base_rings", "FiniteField.__init__", SPAN),
    ("series.mul", "series", "TruncatedSeries.__mul__", AGG),
    ("series.add", "series", "TruncatedSeries.__add__", AGG),
    ("series.substitute", "series", "TruncatedSeries.substitute", SPAN),
    ("singularity.normal_form", "singularity", "normal_form", SPAN),
    ("singularity.kill_linear_term", "singularity", "kill_linear_term", SPAN),
    ("singularity.strip_higher_terms", "singularity", "strip_higher_terms", SPAN),
    ("singularity.certificate", "singularity", "NormalFormResult.certificate_holds", SPAN),
    ("singularity.classify", "singularity", "classify_local_ring", SPAN),
    ("quadforms.is_nondegenerate", "quadforms", "is_nondegenerate", SPAN),
    ("quadforms.from_series", "quadforms", "QuadraticForm.from_series", SPAN),
    ("linalg.smith_form_local", "linalg", "smith_form_local", SPAN),
    ("linalg.invert", "linalg", "invert", SPAN),
    ("linalg.det", "linalg", "det", SPAN),
    ("linalg.mat_mul", "linalg", "mat_mul", SPAN),
    ("linalg.rank_field", "linalg", "rank_field", AGG),
    ("linalg.rref_field", "linalg", "rref_field", AGG),
    ("linalg.mat_vec", "linalg", "mat_vec", AGG),
    ("dieudonne.search", "dieudonne", "lagrangian_witness_search", SPAN),
    ("dieudonne.pair", "dieudonne", "DieudonneModule.pair", AGG),
    ("dieudonne.base_change", "dieudonne", "base_change", SPAN),
    ("dieudonne.invariants", "dieudonne", "a_number", SPAN),
    ("dieudonne.invariants", "dieudonne", "p_rank", SPAN),
    ("dieudonne.invariants", "dieudonne", "kernel_type", SPAN),
    ("local_model.enumerate", "local_model", "enumerate_special_fiber", SPAN),
    ("local_model.tangent_dimension", "local_model", "tangent_dimension", AGG),
    ("local_model.pairing_value", "local_model", "pairing_value", AGG),
    ("local_model.chart_equation", "local_model", "chart_equation", SPAN),
    ("deformation.equation", "deformation", "deformation_equation", SPAN),
    ("jsonio.encode", "jsonio", "ring_to_json", SPAN),
    ("jsonio.encode", "jsonio", "elem_to_json", SPAN),
    ("jsonio.encode", "jsonio", "_digits_list", SPAN),
    ("jsonio.encode", "jsonio", "coeff_ring_to_json", SPAN),
    ("jsonio.encode", "jsonio", "series_to_json", SPAN),
    ("jsonio.encode", "jsonio", "quadform_to_json", SPAN),
    ("jsonio.encode", "jsonio", "normal_form_to_json", SPAN),
    ("jsonio.decode", "jsonio", "ring_from_json", SPAN),
    ("jsonio.decode", "jsonio", "elem_from_fields", SPAN),
    ("jsonio.decode", "jsonio", "coeff_ring_from_json", SPAN),
    ("jsonio.decode", "jsonio", "series_from_json", SPAN),
    ("jsonio.decode", "jsonio", "quadform_from_json", SPAN),
    ("cli.run", "cli", "run", SPAN),
    # main's own time is serializing and printing the document
    ("cli.dump", "cli", "main", SPAN),
)


def _series_mul_counts(tracer, args, result):
    f, g = args[0], args[1]
    D = f.parent.degree
    hist_f = defaultdict(int)
    for e in f.coeffs:
        hist_f[sum(e)] += 1
    hist_g = defaultdict(int)
    for e in g.coeffs:
        hist_g[sum(e)] += 1
    useful = sum(cf * cg for d1, cf in hist_f.items() for d2, cg in hist_g.items() if d1 + d2 < D)
    counts = tracer.counts
    counts["series.mul.pairs"] += len(f.coeffs) * len(g.coeffs)
    counts["series.mul.useful_pairs"] += useful
    counts["series.mul.terms_out"] += len(result.coeffs)


def _search_counts(tracer, args, result):
    tracer.counts["dieudonne.search.nodes"] += result.nodes
    tracer.counts["dieudonne.search.found"] += int(result.found)


def _enumerate_counts(tracer, args, result):
    tracer.counts["local_model.points"] += len(result)


# after-call hooks that record work counts at the layer boundary
EXTRAS = {
    "series.mul": _series_mul_counts,
    "dieudonne.search": _search_counts,
    "local_model.enumerate": _enumerate_counts,
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start, end, parent span index, job id]
        self._frames = []  # child-time accumulators of the open timed calls
        self._open_spans = []
        self.job = -1
        # off while the benchmark checks outputs, so checks are not counted
        self.active = True

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, keep_span):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        clock = time.perf_counter
        extra = EXTRAS.get(name)
        name_id = self._name_id(name)
        # the share of candidate planes kept needs the pairings made inside
        counts_pairings = name == "local_model.enumerate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            if keep_span:
                span = [name_id, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.job]
                open_spans.append(len(spans))
                spans.append(span)
            if counts_pairings:
                pairings_before = calls["local_model.pairing_value"]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dur = t1 - t0
                if frames:
                    frames[-1][0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
                total_s[name] += dur
                if keep_span:
                    open_spans.pop()
                    span[1] = t0
                    span[2] = t1
            if counts_pairings:
                self.counts["local_model.enumerate.pairings"] += (
                    calls["local_model.pairing_value"] - pairings_before)
            if extra is not None:
                extra(self, args, result)
            return result

        return wrapper

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package):
        """Wrap every target in the imported ``sll`` package, in place."""
        for module_name in {target[1] for target in TARGETS}:
            importlib.import_module(f"{package.__name__}.{module_name}")
        modules = [m for m in vars(package).values() if isinstance(m, types.ModuleType)]
        modules.append(package)
        for name, module_name, path, kind in TARGETS:
            module = getattr(package, module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if kind == COUNT:
                wrapped = self._counted(name, fn)
            else:
                wrapped = self._timed(name, fn, kind == SPAN)
            if owner_name:
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    # -- results --------------------------------------------------------------

    def state(self):
        """Aggregates and spans as plain data (a child hands this back)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "names": list(self.names),
            "spans": self.spans,
        }

    def merge(self, state, job):
        """Fold a child's `state()` into this tracer, its spans under `job`."""
        for key in ("calls", "self_s", "total_s", "counts"):
            mine = getattr(self, key)
            for name, v in state[key].items():
                mine[name] += v
        ids = [self._name_id(name) for name in state["names"]]
        base = len(self.spans)
        for name_id, t0, t1, parent, _ in state["spans"]:
            self.spans.append([ids[name_id], t0, t1, parent + base if parent >= 0 else -1, job])

    def dump_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, handle)
