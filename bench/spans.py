"""Layer spans for the traced run, recorded from outside the package.

Each povmquad module reaches the next layer through a module-level name
(``from .quadrature import certify`` binds ``povmquad.cli.certify``). The
tracer rebinds those names to wrappers that record one span per call (name,
start, end, parent span, request id) and add work counts computed from the
argument shapes. Spans stay in memory until :meth:`Tracer.dump`.

A name that a later version of the package no longer has is skipped and
listed in :attr:`Tracer.missing`, so the benchmark keeps running; its
metrics then read 0.
"""
from __future__ import annotations

import functools
import hashlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Rows of one scalar-probe block in povm.scalar_completeness_residual:
# 2e7 // n probes of n overlaps each.
_PROBE_BLOCK_ELEMS = int(2e7)


def _size(a) -> int:
    return int(np.size(a))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fingerprint(q) -> str:
    h = hashlib.sha1()
    for arr in (q.theta, q.phi, q.weights):
        h.update(arr.tobytes())
    return h.hexdigest()


# Counters: fn(tracer, args, kwargs, result) -> None.


def _count_probe_angles(t, args, kwargs, result):
    p = args[0]
    probes = _size(result[0])
    t.add("povm.scalar_overlaps", probes * p.n)
    rows = min(probes, max(1, _PROBE_BLOCK_ELEMS // max(p.n, 1)))
    t.peak("povm.probe_bytes", rows * p.n * 8)


def _count_pow(t, args, kwargs, result):
    t.add("povm.pow_int_elems", _size(args[0]))


def _count_json_write(t, args, kwargs, result):
    t.add("povm.json_bytes", len(result))


def _count_json_read(t, args, kwargs, result):
    t.add("povm.json_bytes", len(args[0]))


def _count_ingest(t, args, kwargs, result):
    t.add("quadrature.ingest_points", result.n)


def _count_certify(t, args, kwargs, result):
    q = args[0]
    order = _arg(args, kwargs, 1, "l_max")
    t.add("quadrature.certify_calls", 1)
    key = _fingerprint(q)
    seen = t.certified.get(key)
    if seen is not None and seen >= order:
        t.add("quadrature.certify_repeats", 1)
    t.certified[key] = max(order, seen or 0)


def _count_sums(t, args, kwargs, result):
    l_max = args[0]
    t.add("harmonics.ylm_evals", _size(args[1]) * (l_max + 1) * (l_max + 2) // 2)


def _count_legendre(t, args, kwargs, result):
    l_max, m = args[0], args[1]
    t.add("orthopoly.legendre_columns", 1)
    t.add("orthopoly.legendre_steps", max(0, l_max - m - 1))


def _count_gauss(t, args, kwargs, result):
    t.add("orthopoly.gauss_nodes", args[0])


def _count_game(t, args, kwargs, result):
    from povmquad import simulate

    p, trials = args[0], args[1]
    chunk = _arg(args, kwargs, 3, "chunk_size", simulate.DEFAULT_CHUNK_SIZE)
    t.add("simulate.game_trials", trials)
    t.add("simulate.game_overlaps", trials * p.n)
    t.peak("simulate.chunk_bytes", min(trials, chunk) * p.n * 8)


# (module, attribute, span name or None for count-only, counter)
WRAPS = (
    ("cli", "product_rule", "quadrature.product_rule", None),
    ("simulate", "product_rule", "quadrature.product_rule", None),
    ("cli", "povm_from_quadrature", "povm.from_quadrature", None),
    ("cli", "scalar_completeness_residual", "povm.scalar", None),
    ("povm", "completeness_test_angles", None, _count_probe_angles),
    ("cli", "operator_completeness_residual", "povm.operator", None),
    ("cli", "povm_to_json", "povm.json_write", _count_json_write),
    ("cli", "povm_from_json", "povm.json_read", _count_json_read),
    ("cli", "ingest_pointset", "quadrature.ingest", _count_ingest),
    ("cli", "certify", "quadrature.certify", _count_certify),
    ("povm", "detect_strength", "quadrature.certify", _count_certify),
    ("quadrature", "weighted_harmonic_sums", "harmonics.sums", _count_sums),
    ("quadrature", "gauss_legendre_rule", "orthopoly.gauss", _count_gauss),
    ("harmonics", "assoc_legendre_column", "orthopoly.legendre", _count_legendre),
    ("povm", "_pow_int", "povm.pow_int", _count_pow),
    ("simulate", "_pow_int", "povm.pow_int", _count_pow),
    ("cli", "run_game", "simulate.game", _count_game),
    ("cli", "quadrature_averaged_score", "simulate.score_avg", None),
    ("povm", "substream", "sphere.substream", None),
    ("simulate", "substream", "sphere.substream", None),
    ("povm", "angles_to_xyz", "sphere.xyz", None),
    ("simulate", "angles_to_xyz", "sphere.xyz", None),
)

# Every span name, so layers with no calls still report 0.
SPAN_NAMES = ("cli",) + tuple(sorted({span for _, _, span, _ in WRAPS if span}))
COUNT_NAMES = (
    "povm.scalar_overlaps",
    "povm.probe_bytes",
    "povm.pow_int_elems",
    "povm.json_bytes",
    "quadrature.ingest_points",
    "quadrature.certify_calls",
    "harmonics.ylm_evals",
    "orthopoly.legendre_columns",
    "orthopoly.legendre_steps",
    "orthopoly.gauss_nodes",
    "simulate.game_trials",
    "simulate.game_overlaps",
    "simulate.chunk_bytes",
)


class Tracer:
    """In-memory spans and counts; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.spans = []  # [id, parent, request, name, start, end]
        self.counts = Counter()
        self.certified = {}  # point-set fingerprint -> highest order, per request
        self.request = -1
        self.missing = []
        self._stack = []
        self._saved = []

    def add(self, name, value):
        self.counts[name] += value

    def peak(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def begin_request(self, index: int):
        self.request = index
        self.certified = {}

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.spans), parent, self.request, name, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[5] = perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, span, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer.call(span, fn, *args, **kwargs)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        import importlib

        for module_name, attr, span, counter in WRAPS:
            module = importlib.import_module(f"povmquad.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, span, counter))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _self_spans(self):
        """(request, name, self time) per span: duration minus direct children."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, _, request, name, start, end in self.spans:
            yield request, name, (end - start) - child[sid]

    def self_times(self):
        """Span name -> summed self time; every known span name present."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for _, name, dt in self._self_spans():
            out[name] += dt
        return out

    def self_times_by(self, key):
        """{key(request id): {span name: self time}} for a breakdown."""
        out = defaultdict(Counter)
        for request, name, dt in self._self_spans():
            out[key(request)][name] += dt
        return out

    def metrics(self) -> dict:
        """Per-layer self times (`<span>_s`, `cli.self_s`) and counts."""
        out = {}
        for name, dt in self.self_times().items():
            out["cli.self_s" if name == "cli" else f"{name}_s"] = dt
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        calls = self.counts["quadrature.certify_calls"]
        repeats = self.counts["quadrature.certify_repeats"]
        out["quadrature.certify_repeat_frac"] = repeats / calls if calls else 0.0
        return out

    def dump(self, path):
        """Write spans as JSON lines: id, parent, request, name, start, end."""
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
