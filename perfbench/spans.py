"""Tracing of qkac's public functions from outside the package.

Each traced function is wrapped once, and the wrapper is rebound in every
``qkac`` module namespace that holds the original.  Modules import
functions by name (``cli`` imports ``evolve_master``, ``chaos`` imports
``apply_pair_channel``, ``linearized`` imports ``wild``), so wrapping the
defining module alone would silently drop the calls made through the
other namespaces; ``install`` refuses to return while any namespace still
holds an original.

A span is ``[name, start, end, parent, note]``: ``parent`` is the index of
the innermost enclosing span (-1 at top level) and ``note`` holds the
operand count and computed bytes of ``apply_QN`` calls.  Spans stay in
memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# module of qkac -> public functions to trace
TRACED = {
    "cli": ("load_config", "run"),
    "master": ("apply_pair_channel", "apply_QN", "evolve_master",
               "ln_null_basis", "steady_states_basis"),
    "spectra": ("shell_decomposition", "classify_shell", "class_projections",
                "commutant_projection"),
    "operators": ("trace_norm", "relative_entropy", "von_neumann_entropy",
                  "partial_trace"),
    "boltzmann": ("wild", "qkbe_integrate"),
    "collisions": ("spec_by_name", "verify_spec"),
    "linearized": ("build_K", "spectral_gap"),
    "chaos": ("run_chaos_experiment",),
}

# Per-layer metrics, in output order: (name, unit).
METRICS = (
    ("master.apply_pair_channel.calls", "count"),
    ("master.apply_pair_channel.s", "s"),
    ("master.apply_QN.calls", "count"),
    ("master.apply_QN.operands", "count"),
    ("master.apply_QN.self_s", "s"),
    ("master.apply_QN.GBps_computed", "GB/s"),
    ("master.evolve_master.calls", "count"),
    ("master.evolve_master.terms", "count"),
    ("master.evolve_master.self_s", "s"),
    ("master.ln_null_basis.self_s", "s"),
    ("master.steady_states_basis.s", "s"),
    ("spectra.shell_decomposition.calls", "count"),
    ("spectra.shell_decomposition.s", "s"),
    ("spectra.classify_shell.calls", "count"),
    ("spectra.classify_shell.self_s", "s"),
    ("spectra.class_projections.self_s", "s"),
    ("spectra.commutant_projection.self_s", "s"),
    ("operators.trace_norm.s", "s"),
    ("operators.relative_entropy.s", "s"),
    ("operators.von_neumann_entropy.s", "s"),
    ("operators.partial_trace.calls", "count"),
    ("operators.partial_trace.s", "s"),
    ("boltzmann.wild.calls", "count"),
    ("boltzmann.wild.s", "s"),
    ("boltzmann.qkbe_integrate.self_s", "s"),
    ("boltzmann.qkbe_integrate.rk4_steps", "count"),
    ("collisions.spec_by_name.s", "s"),
    ("collisions.verify_spec.s", "s"),
    ("linearized.build_K.s", "s"),
    ("linearized.spectral_gap.self_s", "s"),
    ("chaos.run_chaos_experiment.self_s", "s"),
    ("cli.load_config.s", "s"),
    ("cli.run.self_s", "s"),
)
COUNT_METRICS = tuple(name for name, unit in METRICS if unit == "count")


def _apply_qn_note(gen, rho, *args, **kwargs):
    """(operands, computed bytes): every pair channel reads and writes the
    whole complex128 operand once."""
    operands = rho.shape[0] if getattr(rho, "ndim", 2) == 3 else 1
    pairs = len(gen.pairs)
    return [operands, operands * gen.shape.dim ** 2 * 16 * pairs * 2]


NOTES = {"master.apply_QN": _apply_qn_note}


class Tracer:
    """Collects one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1,
                    note(*args, **kwargs) if note else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "qkac" or name.startswith("qkac.")]


def stale_bindings(originals: dict, modules) -> list:
    """``module.attr`` for every namespace that still binds an original."""
    ids = {id(fn) for fn in originals.values()}
    return [f"{m.__name__}.{attr}" for m in modules
            for attr, val in vars(m).items() if id(val) in ids]


def install(tracer: Tracer) -> dict:
    """Wrap every function in ``TRACED`` in every qkac namespace that holds
    it; return the originals by span name."""
    modules = package_modules()
    originals = {}
    for modname, fnames in TRACED.items():
        owner = sys.modules[f"qkac.{modname}"]
        for fname in fnames:
            name = f"{modname}.{fname}"
            fn = originals[name] = getattr(owner, fname)
            wrapped = tracer.wrap(name, fn)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapped)
    stale = stale_bindings(originals, modules)
    if stale:
        raise RuntimeError(f"untraced bindings remain: {stale}")
    return originals


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children[k]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def layer_metrics(spans) -> dict:
    """The values of ``METRICS`` for one traced child's spans."""
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        calls[s[0]] += 1
        total[s[0]] += s[2] - s[1]
        own[s[0]] += self_s
    kids = defaultdict(int)  # (parent name, child name) -> count
    for s in spans:
        if s[3] >= 0:
            kids[spans[s[3]][0], s[0]] += 1
    qn_notes = [s[4] for s in spans if s[0] == "master.apply_QN"]
    qn_bytes = sum(n[1] for n in qn_notes)
    out = {}
    for metric, _ in METRICS:
        name, field = metric.rsplit(".", 1)
        if field == "calls":
            out[metric] = calls[name]
        elif field == "s":
            out[metric] = total[name]
        elif field == "self_s":
            out[metric] = own[name]
    out["master.apply_QN.operands"] = sum(n[0] for n in qn_notes)
    qn_s = total["master.apply_QN"]
    out["master.apply_QN.GBps_computed"] = qn_bytes / qn_s / 1e9 if qn_s else 0.0
    # Poisson terms summed: one per call plus one per Q_N application
    out["master.evolve_master.terms"] = (calls["master.evolve_master"]
                                         + kids["master.evolve_master", "master.apply_QN"])
    out["boltzmann.qkbe_integrate.rk4_steps"] = (
        kids["boltzmann.qkbe_integrate", "boltzmann.wild"] / 4)
    return out


def median_metrics(per_child: list) -> dict:
    """Median of each metric over several traced children."""
    out = {}
    for name, _ in METRICS:
        values = [m[name] for m in per_child]
        # for counts the lower median, so that the value is a count seen
        out[name] = (statistics.median_low(values) if name in COUNT_METRICS
                     else statistics.median(values))
    return out
