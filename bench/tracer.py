"""Per-layer tracing from outside the library.

``Tracer.installed()`` replaces module and class attributes that srauctions
looks up at call time (``srauctions.harness.experiments.build_empirical``,
``srauctions.empirical.concave_envelope``, ``KUniformMatroid.best_set``, ...)
with wrappers, and puts every original back when the block exits.  No
library code is edited.

Calls at a layer boundary become spans: name, start, end and the span that
was open when the call began (its parent), all kept in memory.  Calls that a
per-trial loop makes hundreds of thousands of times (``best_set``,
``stream``, ``virtual_valuation``, ``Accumulator.add``) only bump counters,
so that tracing them stays cheap.  ``metrics()`` turns one traced pass into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# (name, unit, better) of every per-layer metric, in output order.  The
# per-experiment wall times and the whole-process metrics follow them.
LAYER_METRICS = (
    ("rng.stream.calls", "count", "lower"),
    ("rng.stream.s", "s", "lower"),
    ("dists.sample.calls", "count", "lower"),
    ("dists.sample.values", "count", "lower"),
    ("dists.sample.s", "s", "lower"),
    ("dists.sample.ns_per_value", "ns", "lower"),
    ("dists.virtual_valuation.calls", "count", "lower"),
    ("dists.virtual_valuation.s", "s", "lower"),
    ("empirical.build.calls", "count", "lower"),
    ("empirical.build.samples", "count", "lower"),
    ("empirical.build.s", "s", "lower"),
    ("empirical.build.self_s", "s", "lower"),
    ("empirical.build.ns_per_sample", "ns", "lower"),
    ("empirical.envelope.calls", "count", "lower"),
    ("empirical.envelope.s", "s", "lower"),
    ("empirical.envelope.points_in", "count", "lower"),
    ("empirical.envelope.vertices_out", "count", "lower"),
    ("empirical.coverage.calls", "count", "lower"),
    ("empirical.coverage.s", "s", "lower"),
    ("empirical.coverage.hold_ratio", "ratio", "higher"),
    ("lp.build_lp3.s", "s", "lower"),
    ("lp.solve.calls", "count", "lower"),
    ("lp.solve.s", "s", "lower"),
    ("lp.solve.iterations", "count", "lower"),
    ("lp.aggregate.s", "s", "lower"),
    ("lp.make_pricing_plan.s", "s", "lower"),
    ("mechanisms.two_mech_budget.calls", "count", "lower"),
    ("mechanisms.two_mech_budget.us_per_call", "us", "lower"),
    ("mechanisms.lottery_mechanism.calls", "count", "lower"),
    ("mechanisms.lottery_mechanism.us_per_call", "us", "lower"),
    ("mechanisms.thresholds.s", "s", "lower"),
    ("mechanisms.best_set.calls", "count", "lower"),
    ("experiments.lazy_vcg_k_uniform.rows", "count", "lower"),
    ("experiments.lazy_vcg_k_uniform.ns_per_row", "ns", "lower"),
    ("experiments.posted_price_runs.rows", "count", "lower"),
    ("experiments.posted_price_runs.ns_per_row", "ns", "lower"),
    ("experiments.second_price.ns_per_row", "ns", "lower"),
    ("oracles.s", "s", "lower"),
    ("montecarlo.accumulate.calls", "count", "lower"),
    ("montecarlo.accumulate.s", "s", "lower"),
)

PROCESS_METRICS = (
    ("proc.cpu_s", "s", "lower"),
    ("proc.cpu_util", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _rows(result):
    return len(result[0]) if isinstance(result, tuple) else len(result)


# Extra quantities a span records from its call: {quantity: f(args, result)}.
_MEASURES = {
    "dists.sample": {"values": lambda args, out: out.size},
    "empirical.build": {"samples": lambda args, out: out.m},
    "empirical.envelope": {
        "points_in": lambda args, out: len(args[0]),
        "vertices_out": lambda args, out: len(out),
    },
    "empirical.coverage": {"holds": lambda args, out: int(bool(out))},
    "lp.solve": {"iterations": lambda args, out: out.iterations},
    "experiments.lazy_vcg_k_uniform": {"rows": lambda args, out: _rows(out)},
    "experiments.posted_price_runs": {"rows": lambda args, out: _rows(out)},
    "experiments.second_price": {"rows": lambda args, out: _rows(out)},
}


def _targets():
    """(owner, attribute, layer name, kind) for every wrapped attribute.

    ``kind`` is "span", "timed" (counter plus summed time) or "count".
    Each library function is wrapped where its callers look it up, so a
    call passes through exactly one wrapper.
    """
    from srauctions import dists, empirical, mechanisms
    from srauctions.harness import experiments, montecarlo, rng

    out = []
    for cls in (dists.FAlpha, dists.Exponential, dists.DiscreteTabular):
        out.append((cls, "sample", "dists.sample", "span"))
        out.append((cls, "virtual_valuation", "dists.virtual_valuation", "timed"))
    out += [
        (experiments, "build_empirical", "empirical.build", "span"),
        (empirical, "concave_envelope", "empirical.envelope", "span"),
        (empirical.EmpiricalModel, "coverage_event_holds", "empirical.coverage", "span"),
        (experiments, "build_lp3", "lp.build_lp3", "span"),
        (experiments, "solve", "lp.solve", "span"),
        (experiments, "aggregate", "lp.aggregate", "span"),
        (experiments, "make_pricing_plan", "lp.make_pricing_plan", "span"),
        (experiments, "two_mech_budget", "mechanisms.two_mech_budget", "span"),
        (experiments, "lottery_mechanism", "mechanisms.lottery_mechanism", "span"),
        (mechanisms, "compute_B_set_and_thresholds", "mechanisms.thresholds", "span"),
        (mechanisms.KUniformMatroid, "best_set", "mechanisms.best_set", "count"),
        (experiments, "lazy_vcg_k_uniform", "experiments.lazy_vcg_k_uniform", "span"),
        (experiments, "posted_price_runs", "experiments.posted_price_runs", "span"),
        (experiments, "second_price_of_pooled", "experiments.second_price", "span"),
        (experiments, "myerson_optimal_revenue_iid", "oracles", "span"),
        (experiments, "oracle_exact_expectation", "oracles", "span"),
        # experiments calls stream() for trial streams; meta_stream() calls
        # the rng module's own binding.
        (experiments, "stream", "rng.stream", "timed"),
        (rng, "stream", "rng.stream", "timed"),
        (montecarlo.Accumulator, "add", "montecarlo.accumulate", "timed"),
        (montecarlo.Accumulator, "add_batch", "montecarlo.accumulate", "timed"),
    ]
    return out


class Tracer:
    """Spans and counters of one traced pass.

    ``spans`` holds ``[span_id, parent_id, name, start_ns, end_ns]`` rows
    in start order; ``parent_id`` is -1 at the root.
    """

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.sizes: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span (used by the benchmark itself)."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name):
        record = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                  time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record):
        record[4] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, kind):
        calls, ns, sizes, clock = self.calls, self.ns, self.sizes, time.perf_counter_ns
        if kind == "count":
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "timed":
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ns[name] += clock() - start
                    calls[name] += 1
            return timed
        measures = _MEASURES.get(name, {})

        def spanned(*args, **kwargs):
            record = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(record)
            for quantity, measure in measures.items():
                sizes[f"{name}.{quantity}"] += measure(args, out)
            return out
        return spanned

    @contextmanager
    def installed(self):
        """Wrap every target attribute for the block; restore them after."""
        saved = []
        try:
            for owner, attr, name, kind in _targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, kind))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, total ns, self ns).

        Self time is a span's duration minus the durations of its direct
        child spans (children never overlap: the run is single-threaded).
        """
        child_ns: Counter = Counter()
        for _sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for sid, _parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_ns[sid]
        return calls, total, own

    def layer_shares(self, wall_ns: int) -> dict:
        """Inclusive time of each layer over ``wall_ns``.

        A span counts when no enclosing span belongs to the same layer; the
        timed counters add their own totals.  Layers nest (virtual values
        inside mechanisms), so the shares may sum to more than one.
        """
        layer_of = [row[2].split(".")[0] for row in self.spans]
        parents = [row[1] for row in self.spans]
        inclusive: Counter = Counter()
        for sid, _parent, _name, start, end in self.spans:
            layer = layer_of[sid]
            if layer in ("pass", "experiment"):
                continue
            up = parents[sid]
            while up >= 0 and layer_of[up] != layer:
                up = parents[up]
            if up < 0:
                inclusive[layer] += end - start
        for name, total in self.ns.items():
            inclusive[name.split(".")[0]] += total
        return {layer: inclusive[layer] / wall_ns for layer in sorted(inclusive)}

    def metrics(self, experiment_ids) -> dict:
        """Per-layer metric values of this pass, named as in ``LAYER_METRICS``.

        The last part of a name says how its value comes from the spans and
        counters of the rest: ``calls``, ``s`` (total time), ``self_s``,
        ``us_per_call``, ``ns_per_<x>`` (total time over the recorded
        ``<x>s``) and ``hold_ratio`` (holds over calls).  Any other last
        part is a quantity recorded by ``_MEASURES``.
        """
        calls, total, own = self.span_totals()
        calls.update(self.calls)
        total.update(self.ns)

        def ratio(numer, denom):
            return numer / denom if denom else 0.0

        out = {}
        for name, _unit, _better in LAYER_METRICS:
            base, last = name.rsplit(".", 1)
            if last == "calls":
                out[name] = calls[base]
            elif last == "s":
                out[name] = total[base] / 1e9
            elif last == "self_s":
                out[name] = own[base] / 1e9
            elif last == "us_per_call":
                out[name] = ratio(total[base], calls[base]) / 1e3
            elif last.startswith("ns_per_"):
                out[name] = ratio(total[base], self.sizes[f"{base}.{last[7:]}s"])
            elif last == "hold_ratio":
                out[name] = ratio(self.sizes[f"{base}.holds"], calls[base])
            else:
                out[name] = self.sizes[name]
        for eid in experiment_ids:
            out[f"experiment.{eid}.s"] = total[f"experiment.{eid}"] / 1e9
        return out

    def write_spans(self, fh) -> None:
        """Append this pass's spans as CSV rows (pass, id, parent, name, start, end)."""
        for sid, parent, name, start, end in self.spans:
            fh.write(f"{self.pass_id},{sid},{parent},{name},{start},{end}\n")
