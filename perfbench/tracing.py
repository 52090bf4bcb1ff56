"""Spans and counters recorded from outside greenwalk.

A traced pass wraps each op in a span named after the op and attributed to
the op's layer.  Child spans and counts inside a layer call come from
instrumented copies of the public ``JumpKernel`` (``density``, ``sampler``)
and ``SubordinatorSpec`` (``K_eval``, ``increment_sampler``), made with
``dataclasses.replace``; the untraced pass uses the originals.  Spans are
kept in memory and turned into per-layer metrics when the pass ends.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager
from typing import Optional

import numpy as np
from greenwalk.kernels import JumpKernel

from workloads import LAYERS


@dataclasses.dataclass
class Span:
    layer: str
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span stack plus counters keyed by (counter, op)."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @property
    def current_op(self) -> Optional[str]:
        return self.spans[self._stack[0]].name if self._stack else None

    @contextmanager
    def span(self, layer: str, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, name, time.perf_counter(), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, n) -> None:
        self.counts[(key, self.current_op)] += int(n)

    def total(self, key: str, ops=None) -> int:
        return sum(v for (k, op), v in self.counts.items() if k == key and (ops is None or op in ops))


def _size(shape) -> int:
    return int(np.prod(shape))


def traced_kernel(kernel, tracer: Tracer):
    """Copy of a JumpKernel whose density and sampler record spans and counts."""
    density, sampler = kernel.density, kernel.sampler

    def traced_density(x):
        with tracer.span("kernels", "density"):
            tracer.count("kernels.density_evals", np.atleast_2d(np.asarray(x)).shape[0])
            return density(x)

    def traced_sampler(rng, size):
        with tracer.span("kernels", "sampler"):
            tracer.count("kernels.sampler_calls", 1)
            tracer.count("kernels.jump_draws", _size(size))
            return sampler(rng, size)

    return dataclasses.replace(kernel, density=traced_density, sampler=traced_sampler)


def traced_spec(spec, tracer: Tracer):
    """Copy of a SubordinatorSpec whose K_eval and increment sampler record spans."""
    K_eval, increments = spec.K_eval, spec.increment_sampler

    def traced_K(lam):
        with tracer.span("subordinate", "K_eval"):
            tracer.count("subordinate.K_evals", np.size(lam))
            return K_eval(lam)

    def traced_increments(dt, rng, size):
        with tracer.span("subordinate", "increment_sampler"):
            tracer.count("subordinate.increments_drawn", _size(size))
            return increments(dt, rng, size)

    return dataclasses.replace(spec, K_eval=traced_K, increment_sampler=traced_increments)


def traced_inputs(inputs: dict, tracer: Tracer) -> dict:
    """Instrumented copies of the kernels and subordinators of ``make_inputs``."""
    return {name: traced_kernel(v, tracer) if isinstance(v, JumpKernel) else traced_spec(v, tracer)
            for name, v in inputs.items()}


# per-layer metrics that are the summed span time of named ops (prefix match)
SPAN_TIMES = {
    "green.series_s": "green_series_",
    "green.potential_s": "potential",
    "subordinate.rho_s": "rho_",
    "renorm.curve_s": "renormalized_potential_curve",
    "renorm.subsol_s": "subordinated_solution",
    "renorm.fke_s": "fke_residual",
    "renorm.hist_conditional_s": "hist_conditional",
}

LAYER_METRICS = [f"{layer}.{m}" for layer in LAYERS for m in ("busy_s", "self_s", "calls", "failures")]
EXTRA_METRICS = {
    "kernels.density_evals": "count",
    "kernels.sampler_calls": "count",
    "kernels.jump_draws": "count",
    "kernels.sampler_self_s": "s",
    "green.series_s": "s",
    "green.series_terms": "count",
    "green.potential_s": "s",
    "simulate.us_per_path": "us",
    "subordinate.increments_drawn": "count",
    "subordinate.increment_useful_ratio": "ratio",
    "subordinate.K_evals": "count",
    "subordinate.rho_s": "s",
    "subordinate.inversion_failures": "count",
    "renorm.curve_s": "s",
    "renorm.subsol_s": "s",
    "renorm.fke_s": "s",
    "renorm.hist_conditional_s": "s",
    "cli.artifact_bytes": "B",
    "trace.overhead_s": "s",
}


def layer_unit(name: str) -> str:
    if name in EXTRA_METRICS:
        return EXTRA_METRICS[name]
    return "s" if name.endswith("_s") else "count"


def per_layer_metrics(tracer: Tracer, ops, outs: dict, failed: set) -> dict:
    """Per-layer busy/self time, calls and failures plus the layer-specific metrics."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def has_layer_ancestor(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if spans[p].layer == s.layer:
                return True
            p = spans[p].parent
        return False

    m = {name: 0.0 for name in LAYER_METRICS}
    for i, s in enumerate(spans):
        m[f"{s.layer}.self_s"] += s.duration - child_time[i]
        m[f"{s.layer}.calls"] += 1
        if not has_layer_ancestor(s):
            m[f"{s.layer}.busy_s"] += s.duration
    for op in ops:
        if op.name in failed:
            m[f"{op.layer}.failures"] += 1

    top = {s.name: s.duration for s in spans if s.parent is None}
    for key, prefix in SPAN_TIMES.items():
        m[key] = sum(d for name, d in top.items() if name.startswith(prefix))
    m["kernels.sampler_self_s"] = sum(s.duration for s in spans if s.name == "sampler")
    for key in ("kernels.density_evals", "kernels.sampler_calls", "kernels.jump_draws",
                "subordinate.K_evals", "subordinate.increments_drawn"):
        m[key] = tracer.total(key)

    series = outs.get("green_series_lam0") or {}
    m["green.series_terms"] = series.get("n_terms", 0)
    mc = outs.get("mc_truncated_potential")
    m["simulate.us_per_path"] = 1e6 * top["mc_truncated_potential"] / mc["n"] if mc else 0.0
    draw_ops = [name for name, out in outs.items() if out and "steps" in out]
    drawn = tracer.total("subordinate.increments_drawn", draw_ops)
    useful = sum(outs[name]["steps"] for name in draw_ops)
    m["subordinate.increment_useful_ratio"] = useful / drawn if drawn else 0.0
    m["subordinate.inversion_failures"] = sum(
        out["failures"] for out in outs.values() if out and "failures" in out)
    m["cli.artifact_bytes"] = sum(
        out["artifact_bytes"] for out in outs.values() if out and "artifact_bytes" in out)
    return m
