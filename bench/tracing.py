"""Spans around calls into the package, recorded from the benchmark's side.

A traced run swaps selected module attributes for timing wrappers and
restores them afterwards. The package is never edited: each wrapper sits
on the attribute the caller looks up, so nested calls such as
``bounds.full_report -> exact.optimal_error`` and
``montecarlo.simulate_error -> rule.build_rule`` are seen by wrapping the
name inside the calling module. Spans are kept in memory and turned into
per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    parent: int | None
    t0: float
    t1: float = 0.0
    cpu: float = 0.0
    minflt: int = 0
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _law_n(P, *_args, **_kw) -> dict:
    return {"n": P.n}


def _panel_n(panel, *_args, **_kw) -> dict:
    """Size after prior folding, without calling fold_bias (it is traced)."""
    return {"n": panel.n + (panel.p_y != 0.5)}


def _mc_simulate(panel, trials, seed, *, workers=None) -> dict:
    return {"n": panel.n, "trials": trials, "workers": workers or 1}


def _mc_estimate(P, Q, trials, seed, *, workers=None) -> dict:
    return {"n": P.n, "trials": trials, "workers": workers or 1}


def _decide_batch(rule, xs) -> dict:
    return {"form": "list" if isinstance(xs, list) else "ndarray", "vectors": len(xs)}


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name, attrs_fn):
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, 0.0,
                        attrs=attrs_fn(*args, **kwargs) if attrs_fn else {})
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cpu0 = time.process_time()
            span.t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.t1 = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                span.minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
                self._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, attrs_fn=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, attrs_fn))

    def install(self, vb) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        exact, bounds, core, mc, rule, cli = (vb.exact, vb.bounds, vb.core, vb.montecarlo,
                                              vb.rule, vb.cli)
        for owner in (exact, bounds):
            self.patch(owner, "optimal_error", "exact.optimal_error", _panel_n)
        for owner in (exact, cli):
            self.patch(owner, "affinity", "exact.affinity", _law_n)
        self.patch(exact, "min_mass", "exact.min_mass", _law_n)
        self.patch(bounds, "full_report", "bounds.full_report")
        self.patch(cli, "full_report", "bounds.full_report")
        for owner in (mc, cli):
            self.patch(owner, "simulate_error", "montecarlo.simulate_error", _mc_simulate)
            self.patch(owner, "estimate_min_mass", "montecarlo.estimate_min_mass", _mc_estimate)
        for owner in (rule, mc, cli):
            self.patch(owner, "build_rule", "rule.build_rule")
        self.patch(rule.DecisionRule, "decide_batch", "rule.decide_batch", _decide_batch)
        self.patch(core, "validate_panel", "core.validate_panel")
        for owner in (core, cli):
            self.patch(owner, "load_panel", "core.load_panel")
        for owner in (core, exact, bounds, cli):
            self.patch(owner, "fold_bias", "core.fold_bias")
        self.patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def named(self, name: str, ok_only: bool = True) -> list[Span]:
        return [s for s in self.spans if s.name == name and (s.ok or not ok_only)]

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        return span.dur - sum(s.dur for s in self.spans if s.parent == index)


def _median(values, scale=1.0) -> float | None:
    return statistics.median(values) * scale if values else None


def _ratio(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


# Name -> unit of every per-layer metric; BENCHMARK.json lists the same.
LAYER_UNITS = {
    "exact.optimal_error.ms": "ms",
    "exact.affinity.ms": "ms",
    "exact.points_per_s": "1/s",
    "exact.minor_faults_per_call": "count",
    "exact.min_mass.calls": "count",
    "bounds.full_report.self_ms": "ms",
    "montecarlo.simulate_error.ms": "ms",
    "montecarlo.estimate_min_mass.ms": "ms",
    "montecarlo.trials_per_s": "1/s",
    "montecarlo.votes_scored_per_s": "1/s",
    "montecarlo.blocks": "count",
    "parallel.efficiency": "fraction",
    "rule.build_rule.us": "us",
    "rule.decide_batch.vectors_per_s.list": "1/s",
    "rule.decide_batch.vectors_per_s.ndarray": "1/s",
    "core.validate_panel.us": "us",
    "core.load_panel.us": "us",
    "core.fold_bias.us": "us",
    "cli.interpreter_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_votebounds_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_frac": "fraction",
    "failure_ratio": "fraction",
}


def layer_metrics(tracer: Tracer, ops: int, block_size: int) -> dict[str, float | None]:
    """Per-layer values from the spans of a traced phase of ``ops`` ops.

    A value is None when the phase has no span it could be measured on.
    The cli.* probes, trace.* and failure_ratio are filled in by the caller.
    """
    t = tracer
    out: dict[str, float] = {}
    out["exact.optimal_error.ms"] = _median([s.dur for s in t.named("exact.optimal_error")], 1e3)
    out["exact.affinity.ms"] = _median([s.dur for s in t.named("exact.affinity")], 1e3)
    top = t.named("exact.optimal_error") + t.named("exact.affinity")
    out["exact.points_per_s"] = _ratio(sum(2.0 ** s.attrs["n"] for s in top),
                                       sum(s.dur for s in top))
    out["exact.minor_faults_per_call"] = _ratio(sum(s.minflt for s in top), len(top))
    out["exact.min_mass.calls"] = _ratio(len(t.named("exact.min_mass", False)), ops)
    out["bounds.full_report.self_ms"] = _median(
        [t.self_time(i) for i, s in enumerate(t.spans)
         if s.name == "bounds.full_report" and s.ok], 1e3)

    sims = t.named("montecarlo.simulate_error")
    ests = t.named("montecarlo.estimate_min_mass")
    mc = sims + ests
    busy = sum(s.dur for s in mc)
    out["montecarlo.simulate_error.ms"] = _median([s.dur for s in sims], 1e3)
    out["montecarlo.estimate_min_mass.ms"] = _median([s.dur for s in ests], 1e3)
    out["montecarlo.trials_per_s"] = _ratio(sum(s.attrs["trials"] for s in mc), busy)
    out["montecarlo.votes_scored_per_s"] = _ratio(
        sum(s.attrs["trials"] * s.attrs["n"] for s in mc), busy)
    out["montecarlo.blocks"] = _ratio(
        sum(math.ceil(s.attrs["trials"] / block_size) for s in mc), len(mc))
    out["parallel.efficiency"] = _ratio(sum(s.cpu for s in mc),
                                        sum(s.dur * s.attrs["workers"] for s in mc))

    out["rule.build_rule.us"] = _median([s.dur for s in t.named("rule.build_rule")], 1e6)
    for form in ("list", "ndarray"):
        batches = [s for s in t.named("rule.decide_batch") if s.attrs["form"] == form]
        out[f"rule.decide_batch.vectors_per_s.{form}"] = _ratio(
            sum(s.attrs["vectors"] for s in batches), sum(s.dur for s in batches))
    for name in ("core.validate_panel", "core.load_panel", "core.fold_bias"):
        out[f"{name}.us"] = _median([s.dur for s in t.named(name)], 1e6)
    out["cli.main_ms"] = _median([s.dur for s in t.named("cli.main", False)], 1e3)
    return out


def call_every_layer(vb, workdir, workers: int) -> None:
    """One small call into every traced layer, for layers a workload skips."""
    mapping = {"psi": [0.55 + 0.025 * i for i in range(16)],
               "eta": [0.9 - 0.02 * i for i in range(16)], "p_y": 0.4}
    path = workdir / "layer-probe.json"
    path.write_text(json.dumps(mapping), encoding="utf-8")
    panel = vb.core.load_panel(path)
    folded = vb.core.fold_bias(panel)
    vb.exact.optimal_error(panel)
    vb.exact.affinity(folded.law_given_one(), folded.law_given_zero())
    vb.bounds.full_report(panel, with_exact=True)
    wide = vb.core.validate_panel({"psi": [0.6] * 30, "eta": [0.65] * 30})
    vb.montecarlo.simulate_error(wide, 1 << 17, 1, workers=workers)
    vb.montecarlo.estimate_min_mass(wide.law_given_one(), wide.law_given_zero(), 1 << 17, 1,
                                    workers=workers)
    rule = vb.rule.build_rule(panel)
    votes = (np.arange(256 * 16).reshape(256, 16) % 3 == 0).astype(np.uint8)
    rule.decide_batch(votes)
    rule.decide_batch(votes.tolist())
    with contextlib.redirect_stdout(io.StringIO()):
        vb.cli.main(["error", str(path), "--format", "json"])
